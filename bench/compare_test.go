package main

import (
	"bytes"
	"strings"
	"testing"
)

func handAccount(roundS, speedup, evals float64, digest string) *account {
	timed := &report{Digest: digest, Metrics: map[string]metric{
		"setup_s": {0.5, "s"}, "round_s": {roundS, "s"}, "cpu_s": {2, "s"},
		"unit_p50_ms": {3, "ms"}, "unit_tail_ms": {9, "ms"}, "live_heap_mb": {8, "MB"},
		"best_speedup": {speedup, "x"},
	}}
	traced := &report{Digest: digest, Metrics: map[string]metric{"core.evals": {evals, "count"}}}
	return &account{Workloads: []*entry{{Name: "search_synth", Attempted: 10, Timed: timed, Traced: traced}}}
}

func TestCompareAccounts(t *testing.T) {
	base := handAccount(1.00, 1.5, 6271, "aa")
	for _, c := range []struct {
		name     string
		b        *account
		breaches int
		want     string
	}{
		{"same", handAccount(1.00, 1.5, 6271, "aa"), 0, ""},
		{"within the 25% bound", handAccount(1.20, 1.5, 6271, "aa"), 0, "+20.00%"},
		{"faster is never a breach", handAccount(0.50, 1.5, 6271, "aa"), 0, "-50.00%"},
		{"round_s 30% worse", handAccount(1.30, 1.5, 6271, "aa"), 1, "BREACH"},
		{"higher-is-better metric drops", handAccount(1.00, 1.2, 6271, "aa"), 1, "exact metric differs"},
		{"exact count moves", handAccount(1.00, 1.5, 6272, "aa"), 1, "exact count differs"},
		{"results differ", handAccount(1.00, 1.5, 6271, "bb"), 1, "results differ"},
	} {
		var out bytes.Buffer
		if got := compareAccounts(&out, base, c.b); got != c.breaches {
			t.Errorf("%s: %d breaches, want %d\n%s", c.name, got, c.breaches, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.want, out.String())
		}
	}

	var out bytes.Buffer
	dead := handAccount(1, 1.5, 6271, "aa")
	dead.Workloads[0].Traced = nil
	if got := compareAccounts(&out, base, dead); got != 1 || !strings.Contains(out.String(), "missing or dead") {
		t.Errorf("dead side: %d breaches\n%s", got, out.String())
	}
	out.Reset()
	failing := handAccount(1, 1.5, 6271, "aa")
	failing.Workloads[0].Failed = 2
	if got := compareAccounts(&out, base, failing); got != 1 || !strings.Contains(out.String(), "2 of 10 operations failed") {
		t.Errorf("failing side: %d breaches\n%s", got, out.String())
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(2, 2.2, "lower"); got < 0.0999 || got > 0.1001 {
		t.Errorf("lower-is-better +10%% = %v", got)
	}
	if got := worsening(2, 1.8, "higher"); got < 0.0999 || got > 0.1001 {
		t.Errorf("higher-is-better -10%% = %v", got)
	}
	if got := worsening(2, 1.8, "lower"); got > 0 {
		t.Errorf("an improvement reads as worsening %v", got)
	}
}
