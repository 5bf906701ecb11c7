// Package store persists exploration runs so they survive deadlines,
// crashes, and redeployments: a run directory holds an immutable manifest
// (what is being explored, hashed so a resumed run refuses mismatched
// settings) and a sequence of atomic checkpoints (the work-stealing frontier
// and the aggregated outcome so far).
//
// Every write is crash-safe: the file is written to a temporary name in the
// run directory, fsync'd, renamed over the target, and the directory is
// fsync'd — a torn write can lose at most the newest checkpoint, never
// corrupt an existing one.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/obs"
)

// FormatVersion identifies the checkpoint format; a store written by a
// different version refuses to resume.
const FormatVersion = 1

const (
	manifestFile   = "manifest.json"
	checkpointFile = "checkpoint.json"
	lockFile       = "owner.json"
)

// Manifest pins down what a run directory explores. Every field that
// influences the shape or outcome of the exploration participates in the
// settings hash; fields that only change how fast the answer is found
// (worker count, dedup, execution cap) are recorded for inspection but may
// vary across resumes.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	Engine        string `json:"engine"`
	CreatedAt     string `json:"created_at,omitempty"`

	Protocol        string  `json:"protocol"`
	Objects         int     `json:"objects"`
	Inputs          []int64 `json:"inputs"`
	FaultyObjects   []int   `json:"faulty_objects"`
	FaultsPerObject int     `json:"faults_per_object"`
	Kind            string  `json:"kind"`
	StepLimit       int     `json:"step_limit"`
	Exhaustive      bool    `json:"exhaustive"`
	// Exec is the execution form the run explored under. It is hashed, and
	// the engine always records "compiled", its one form, so run
	// directories written while a goroutine form also existed keep their
	// hash. One recording the removed "interpreted" form is refused by the
	// engine (run.CheckModes).
	Exec string `json:"exec,omitempty"`
	// Reduce is the partial-order reduction mode ("on"; empty means off;
	// the removed "aggressive" is refused). It is hashed when set: reduced
	// choice paths are coordinates in a reduced tree, so a checkpointed
	// frontier is only meaningful to an engine running the same reduction. The empty/off value contributes nothing to the hash,
	// so run directories from before reduction existed still verify.
	Reduce string `json:"reduce,omitempty"`

	// Advisory (not hashed): tuning that does not change the verdict.
	MaxExecutions int  `json:"max_executions"`
	Dedup         bool `json:"dedup"`

	// Extra carries driver-specific reconstruction data (e.g. the CLI
	// flags that built the protocol). Not hashed.
	Extra map[string]string `json:"extra,omitempty"`

	// SettingsHash is the hash of the verdict-relevant fields above,
	// filled in by Create and verified on resume.
	SettingsHash string `json:"settings_hash"`
}

// Hash computes the settings hash over the verdict-relevant fields.
func (m *Manifest) Hash() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|%s|%d|%v|%v|%d|%s|%d|%v|%s",
		m.FormatVersion, m.Protocol, m.Objects, m.Inputs,
		m.FaultyObjects, m.FaultsPerObject, m.Kind, m.StepLimit, m.Exhaustive,
		m.Exec)
	if m.Reduce != "" && m.Reduce != "off" {
		fmt.Fprintf(h, "|reduce=%s", m.Reduce)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Task is one unexplored region of the execution tree: the subtree rooted
// at Path, backtracking no shallower than Floor (Floor < len(Path) marks an
// in-progress enumeration whose positions below Floor are not yet
// exhausted).
type Task struct {
	Path  []int `json:"path"`
	Floor int   `json:"floor"`
}

// Checkpoint is one atomic snapshot of an exploration in flight: what a
// restart needs to cover the unfinished work and report the same verdict —
// the tasks, the counters, and the best counterexample. The dedup visited
// set is not persisted: it is a cache the resumed run rebuilds. Older run
// directories may hold a "dedup" array in their checkpoint; decoding skips
// unknown keys, so they still resume.
type Checkpoint struct {
	Seq  int  `json:"seq"`
	Done bool `json:"done"` // the exploration finished; Tasks is empty

	Executions   int64 `json:"executions"`
	Violations   int64 `json:"violations"`
	MaxProcSteps int   `json:"max_proc_steps"`
	MaxFaults    int   `json:"max_faults"`
	Capped       bool  `json:"capped"`

	// BestPath is the canonical violating choice path found so far (nil
	// when none): replaying it reconstructs the counterexample.
	BestPath []int `json:"best_path,omitempty"`
	// BestLen is the schedule length of the best violation (exhaustive
	// mode's minimality metric).
	BestLen int `json:"best_len,omitempty"`
	// FirstViolationNS is the wall-clock latency to the first violation.
	FirstViolationNS int64 `json:"first_violation_ns,omitempty"`
	// ElapsedNS accumulates exploration wall-clock across resumes.
	ElapsedNS int64 `json:"elapsed_ns"`

	Tasks []Task `json:"tasks"`
}

// Store is an open run directory.
type Store struct {
	dir      string
	manifest Manifest
	cp       *Checkpoint
	seq      int
	locked   bool // the owner lock is still held; Close releases it

	// Observability, attached via Instrument; all nil-safe.
	events    *obs.Log
	saves     *obs.Counter
	saveBytes *obs.Counter
	saveMS    *obs.Histogram
}

// Instrument attaches observability to the store: checkpoint save counts,
// serialized bytes, and write latency on the registry
// (store.checkpoint.saves / .bytes / .write_ms), and a checkpoint.write
// event per successful Save on the event log. Either argument may be nil.
func (s *Store) Instrument(reg *obs.Registry, events *obs.Log) {
	s.events = events
	if reg != nil {
		s.saves = reg.Counter("store.checkpoint.saves")
		s.saveBytes = reg.Counter("store.checkpoint.bytes")
		s.saveMS = reg.Histogram("store.checkpoint.write_ms",
			0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000)
	}
}

// ErrMismatch reports that a run directory's manifest does not match the
// settings of the exploration trying to resume it.
var ErrMismatch = errors.New("store: run settings do not match the manifest")

// ErrLocked reports that a run directory is exclusively held by another live
// process. Match with errors.Is; the concrete *LockedError carries the
// holder's identity.
var ErrLocked = errors.New("store: run directory is held by another live process")

// LockedError is the typed form of ErrLocked: opening a run directory whose
// owner lock names a process that is still alive.
type LockedError struct {
	Dir   string // the run directory
	PID   int    // the live holder
	Since string // when the holder took the lock (RFC3339)
}

func (e *LockedError) Error() string {
	return fmt.Sprintf("store: %s is held by live process %d (since %s)", e.Dir, e.PID, e.Since)
}

func (e *LockedError) Unwrap() error { return ErrLocked }

// ownerLock is the on-disk owner record. The epoch disambiguates PID reuse
// across reboots well enough for an advisory lock: a stale lock whose PID is
// dead is silently replaced.
type ownerLock struct {
	PID       int    `json:"pid"`
	Epoch     int64  `json:"epoch"` // unix nanoseconds at acquisition
	CreatedAt string `json:"created_at"`
}

// acquireLock takes the run directory's exclusive owner lock. A lock held by
// this same process is reused (sequential Create→Open in one process is
// normal); a lock whose PID is dead is replaced; a lock whose PID is alive
// yields *LockedError.
func acquireLock(dir string) error {
	for attempt := 0; attempt < 3; attempt++ {
		rec := ownerLock{
			PID:       os.Getpid(),
			Epoch:     time.Now().UnixNano(),
			CreatedAt: time.Now().UTC().Format(time.RFC3339),
		}
		data, err := json.Marshal(&rec)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		err = createExclusive(dir, lockFile, data)
		if err == nil {
			return nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return err
		}
		held, err := os.ReadFile(filepath.Join(dir, lockFile))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // released between link and read; retry
			}
			return fmt.Errorf("store: %w", err)
		}
		var cur ownerLock
		if err := json.Unmarshal(held, &cur); err != nil || cur.PID == 0 {
			// Corrupt lock: replace it rather than brick the run dir.
			os.Remove(filepath.Join(dir, lockFile))
			continue
		}
		if cur.PID == os.Getpid() {
			return nil // our own lock (earlier handle in this process)
		}
		if pidAlive(cur.PID) {
			return &LockedError{Dir: dir, PID: cur.PID, Since: cur.CreatedAt}
		}
		// Stale lock from a dead process (e.g. SIGKILL): replace it.
		os.Remove(filepath.Join(dir, lockFile))
	}
	return fmt.Errorf("store: could not acquire owner lock in %s (lock churn)", dir)
}

// pidAlive reports whether a process with the given PID exists. Signal 0
// probes without delivering; EPERM still proves existence.
func pidAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = p.Signal(syscall.Signal(0))
	return err == nil || errors.Is(err, syscall.EPERM)
}

// Close releases the owner lock taken by Create/Open. Closing an
// already-closed handle is a no-op. The run directory's contents are
// unaffected — every write was already durable when Save returned.
func (s *Store) Close() error {
	if !s.locked {
		return nil
	}
	s.locked = false
	if err := os.Remove(filepath.Join(s.dir, lockFile)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Create initializes a new run directory with the given manifest and takes
// its exclusive owner lock (release with Close). It fails if the directory
// already contains a manifest — resuming must go through Open so the
// settings check cannot be bypassed.
func Create(dir string, m Manifest) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Durability: the rename discipline inside writeFileAtomic fsyncs the
	// run directory, but the run directory's own creation lives in its
	// parent — sync that too, or a crash can lose the whole run dir entry.
	if err := syncDir(filepath.Dir(dir)); err != nil {
		return nil, err
	}
	m.FormatVersion = FormatVersion
	m.SettingsHash = m.Hash()
	if m.CreatedAt == "" {
		m.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := createExclusive(dir, manifestFile, data); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("store: %s already holds a run (resume it, or choose a fresh directory): %w", dir, fs.ErrExist)
		}
		return nil, err
	}
	if err := acquireLock(dir); err != nil {
		return nil, err
	}
	return &Store{dir: dir, manifest: m, locked: true}, nil
}

// Open loads an existing run directory — its manifest and, when present, the
// latest checkpoint — and takes its exclusive owner lock. A directory held
// by another live process yields *LockedError (errors.Is ErrLocked) instead
// of silently sharing mutable checkpoint state.
func Open(dir string) (*Store, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	if err := acquireLock(dir); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, manifest: m, locked: true}

	cpData, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// A manifest without a checkpoint: the run died before its first
		// snapshot; resume restarts from the root.
	case err != nil:
		s.Close()
		return nil, fmt.Errorf("store: %w", err)
	default:
		var cp Checkpoint
		if err := json.Unmarshal(cpData, &cp); err != nil {
			s.Close()
			return nil, fmt.Errorf("store: corrupt checkpoint in %s: %w", dir, err)
		}
		s.cp = &cp
		s.seq = cp.Seq
	}
	return s, nil
}

// ReadManifest loads and validates only the run directory's manifest: no
// owner lock is taken and the checkpoint is not read, so it costs the same
// however large the checkpointed frontier is.
func ReadManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("store: %s holds no run manifest: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("store: corrupt manifest in %s: %w", dir, err)
	}
	if m.FormatVersion != FormatVersion {
		return Manifest{}, fmt.Errorf("store: %s uses checkpoint format %d, this binary writes %d",
			dir, m.FormatVersion, FormatVersion)
	}
	if got := m.Hash(); got != m.SettingsHash {
		return Manifest{}, fmt.Errorf("store: manifest hash mismatch in %s (recorded %s, computed %s)",
			dir, m.SettingsHash, got)
	}
	return m, nil
}

// Dir returns the run directory path.
func (s *Store) Dir() string { return s.dir }

// Manifest returns the run's manifest.
func (s *Store) Manifest() Manifest { return s.manifest }

// Checkpoint returns the latest checkpoint loaded by Open, or nil for a
// fresh run.
func (s *Store) Checkpoint() *Checkpoint { return s.cp }

// Verify checks that the given manifest describes the same exploration as
// the stored one, returning ErrMismatch with the differing hash otherwise.
func (s *Store) Verify(m Manifest) error {
	m.FormatVersion = FormatVersion
	if got, want := m.Hash(), s.manifest.SettingsHash; got != want {
		return fmt.Errorf("%w: settings hash %s, run was created with %s", ErrMismatch, got, want)
	}
	return nil
}

// Save atomically persists a checkpoint, assigning it the next sequence
// number. The previous checkpoint is intact until the rename commits.
func (s *Store) Save(cp *Checkpoint) error {
	start := time.Now()
	s.seq++
	cp.Seq = s.seq
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeFileAtomic(s.dir, checkpointFile, data); err != nil {
		return err
	}
	ms := float64(time.Since(start).Microseconds()) / 1000
	if s.saves != nil {
		s.saves.Inc()
		s.saveBytes.Add(int64(len(data)))
		s.saveMS.Observe(ms)
	}
	s.events.Emit(obs.Info, "checkpoint.write", map[string]any{
		"seq": cp.Seq, "bytes": len(data), "tasks": len(cp.Tasks),
		"ms": ms, "done": cp.Done,
	})
	return nil
}

// writeFileAtomic writes name under dir crash-safely: temp file in the same
// directory, fsync, rename, directory fsync.
func writeFileAtomic(dir, name string, data []byte) error {
	tmpName, err := writeTemp(dir, name, data)
	if err != nil {
		return err
	}
	defer os.Remove(tmpName) // no-op after a successful rename
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// createExclusive commits name under dir if and only if no file with that
// name exists, with the same durability as writeFileAtomic: the content is
// written and fsync'd to a temp file, then hard-linked to the target — link
// is atomic and fails with fs.ErrExist when the target appeared first, so
// racing creators resolve to exactly one winner whose content is complete.
func createExclusive(dir, name string, data []byte) error {
	tmpName, err := writeTemp(dir, name, data)
	if err != nil {
		return err
	}
	defer os.Remove(tmpName)
	if err := os.Link(tmpName, filepath.Join(dir, name)); err != nil {
		if errors.Is(err, fs.ErrExist) {
			return fmt.Errorf("store: %s: %w", name, fs.ErrExist)
		}
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// writeTemp writes data to a fresh temp file in dir, fsync'd and closed,
// returning its path. The caller commits it by rename or link.
func writeTemp(dir, name string, data []byte) (string, error) {
	tmp, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("store: %w", err)
	}
	return tmpName, nil
}

// syncDir fsyncs a directory so a just-committed rename or link survives a
// crash: the data was durable before the commit, the directory entry is
// durable after this.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
