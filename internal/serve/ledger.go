package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gevo/internal/fault"
)

// LedgerVersion is the on-disk job-ledger format version. Bump on any
// incompatible change; Open rejects mismatches instead of guessing.
const LedgerVersion = 1

// ledgerJob is one job's durable record: the spec (enough to rebuild the
// search from scratch), the lifecycle position, and bookkeeping. The
// search state itself lives next door in the island checkpoint file — the
// ledger answers "which jobs exist and where do they stand", the
// checkpoint answers "resume bit-identically from here". Unknown fields
// (older ledgers carry a "cached" flag) parse and are ignored.
type ledgerJob struct {
	ID              string  `json:"id"`
	Key             string  `json:"key"`
	Spec            JobSpec `json:"spec"`
	State           State   `json:"state"`
	Gen             int     `json:"gen"`
	Submits         int     `json:"submits"`
	Error           string  `json:"error,omitempty"`
	Trace           string  `json:"trace,omitempty"`
	SubmittedUnixMs int64   `json:"submitted_unix_ms"`
	StartedUnixMs   int64   `json:"started_unix_ms,omitempty"`
	DoneUnixMs      int64   `json:"done_unix_ms,omitempty"`
}

// ledgerDoc is the ledger file layout.
type ledgerDoc struct {
	Version int         `json:"version"`
	Jobs    []ledgerJob `json:"jobs"`
}

func ledgerPath(dir string) string { return filepath.Join(dir, "ledger.json") }

// jobDir returns (and lazily creates) a job's state directory.
func jobDir(dir, id string) string { return filepath.Join(dir, "jobs", id) }

func checkpointPath(dir, id string) string { return filepath.Join(jobDir(dir, id), "checkpoint.json") }
func resultPath(dir, id string) string     { return filepath.Join(jobDir(dir, id), "result.json") }

// fsio is the injectable filesystem shim serve's durable writes go
// through: each step of the atomic write protocol — write, sync, close,
// rename — consults the fault injector first, so the persistence failure
// domain (disk full, torn write, a failing fsync) is drivable from a
// deterministic schedule. The zero fsio (nil injector) is the production
// path and performs the steps verbatim.
type fsio struct {
	inj *fault.Injector
}

// writeFileAtomic writes blob to path via a synced temp file renamed into
// place, so a crash (or an injected failure) mid-write never leaves a
// truncated document where a good one was: the rename is the commit point,
// and every failure before it leaves the previous file intact and removes
// the temp file.
func (f fsio) writeFileAtomic(path string, blob []byte) (err error) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if flt := f.inj.Hit(fault.SitePersistWrite); flt.Kind != "" {
		if flt.Kind == fault.KindTorn {
			// Torn write: a prefix reaches the temp file, then the writer
			// dies. The commit rename never happens, which is exactly what
			// makes the tear invisible to a reopening manager.
			_, _ = tmp.Write(blob[:len(blob)/2])
		}
		tmp.Close()
		return flt.Err
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	if flt := f.inj.Hit(fault.SitePersistSync); flt.Kind != "" {
		tmp.Close()
		return flt.Err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if flt := f.inj.Hit(fault.SitePersistClose); flt.Kind != "" {
		tmp.Close()
		return flt.Err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if flt := f.inj.Hit(fault.SitePersistRename); flt.Kind != "" {
		return flt.Err
	}
	return os.Rename(tmp.Name(), path)
}

// saveLedger persists the manager's job table as compact JSON (older
// indented ledgers load the same). The write is atomic, so a kill at any
// instant leaves either the previous or the new ledger.
func saveLedger(f fsio, dir string, jobs []ledgerJob) error {
	blob, err := json.Marshal(ledgerDoc{Version: LedgerVersion, Jobs: jobs})
	if err != nil {
		return fmt.Errorf("serve: marshal ledger: %w", err)
	}
	return f.writeFileAtomic(ledgerPath(dir), blob)
}

// loadLedger reads the ledger, mapping a missing file to an empty ledger
// (a fresh state directory).
func loadLedger(dir string) ([]ledgerJob, error) {
	blob, err := os.ReadFile(ledgerPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var doc ledgerDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("serve: parse ledger %s: %w", ledgerPath(dir), err)
	}
	if doc.Version != LedgerVersion {
		return nil, fmt.Errorf("serve: ledger %s version %d, want %d", ledgerPath(dir), doc.Version, LedgerVersion)
	}
	return doc.Jobs, nil
}

// saveResult persists a finished job's artifact.
func saveResult(f fsio, dir, id string, res *JobResult) error {
	blob, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return fmt.Errorf("serve: marshal result: %w", err)
	}
	blob = append(blob, '\n')
	return f.writeFileAtomic(resultPath(dir, id), blob)
}

// loadResult reads a finished job's artifact back after a restart.
func loadResult(dir, id string) (*JobResult, error) {
	blob, err := os.ReadFile(resultPath(dir, id))
	if err != nil {
		return nil, err
	}
	var res JobResult
	if err := json.Unmarshal(blob, &res); err != nil {
		return nil, fmt.Errorf("serve: parse result %s: %w", resultPath(dir, id), err)
	}
	return &res, nil
}
