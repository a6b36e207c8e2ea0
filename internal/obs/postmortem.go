package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// The crash postmortem: when a serve-side goroutine panics, the process is
// about to die — the one chance to preserve what the flight recorder and
// the metrics registry knew is right now, before the panic re-raises. The
// dump is a single JSON document so the CI postmortem smoke (and a human
// at 3am) can parse it with any tool at hand.

// PostmortemDoc is the crash dump layout.
type PostmortemDoc struct {
	// WrittenUnixMs stamps the dump.
	WrittenUnixMs int64 `json:"written_unix_ms"`
	// Build identifies the crashed binary.
	Build BuildInfo `json:"build"`
	// Panic is the stringified panic value; Stack the goroutine stack that
	// carried it.
	Panic string `json:"panic"`
	Stack string `json:"stack"`
	// Metrics is the registry snapshot in Prometheus text exposition form —
	// text rather than structured so ±Inf histogram bounds survive JSON.
	Metrics string `json:"metrics"`
	// Journal is the collector's journal, decoded, oldest record first.
	Journal []Record `json:"journal"`
}

// WritePostmortem writes a crash dump to path. reg and col may each be nil
// (the corresponding section is empty). Errors are returned, not fatal:
// the caller is already crashing and decides whether to care.
func WritePostmortem(path string, reg *Registry, col *Collector, panicVal any, stack []byte) error {
	doc := PostmortemDoc{
		WrittenUnixMs: time.Now().UnixMilli(), //gevo:allow crash-dump timestamp; the process is dying, nothing feeds back into results
		Build:         Build(),
		Panic:         fmt.Sprint(panicVal),
		Stack:         string(stack),
	}
	if reg != nil {
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err == nil {
			doc.Metrics = b.String()
		}
	}
	if col != nil {
		doc.Journal = col.Records()
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		_ = os.MkdirAll(dir, 0o755)
	}
	return os.WriteFile(path, blob, 0o644)
}

// CrashGuard returns a recover hook to defer at the top of a goroutine
// whose panic should leave a postmortem: on panic it writes the dump to
// path, then re-raises so the crash stays a crash. Usage:
//
//	defer obs.CrashGuard(path, reg, col)()
func CrashGuard(path string, reg *Registry, col *Collector) func() {
	return func() {
		r := recover()
		if r == nil {
			return
		}
		_ = WritePostmortem(path, reg, col, r, debug.Stack())
		panic(r)
	}
}
