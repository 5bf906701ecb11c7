package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testManifest() Manifest {
	return Manifest{
		Engine:          "explore.Engine/test",
		Protocol:        "figure3/staged(f=1,t=1)",
		Objects:         1,
		Inputs:          []int64{10, 11},
		FaultyObjects:   []int{0},
		FaultsPerObject: 1,
		Kind:            "overriding",
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	s, err := Create(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if s.Checkpoint() != nil {
		t.Fatal("fresh store has a checkpoint")
	}

	cp := &Checkpoint{
		Executions: 42,
		Tasks:      []Task{{Path: []int{1, 0}, Floor: 1}, {Path: nil, Floor: 0}},
		BestPath:   []int{0, 1, 1},
	}
	if err := s.Save(cp); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(cp); err != nil {
		t.Fatal(err)
	}

	o, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := o.Checkpoint()
	if got == nil {
		t.Fatal("no checkpoint loaded")
	}
	if got.Seq != 2 || got.Executions != 42 {
		t.Fatalf("checkpoint = %+v", got)
	}
	if len(got.Tasks) != 2 || got.Tasks[0].Floor != 1 {
		t.Fatalf("tasks = %+v", got.Tasks)
	}
	if o.Manifest().SettingsHash == "" {
		t.Fatal("manifest hash not recorded")
	}
	// A subsequent Save continues the sequence.
	if err := o.Save(&Checkpoint{}); err != nil {
		t.Fatal(err)
	}
	o2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if o2.Checkpoint().Seq != 3 {
		t.Fatalf("seq = %d, want 3", o2.Checkpoint().Seq)
	}
}

// TestOpenSkipsStoredDedupSet: a checkpoint does not carry the dedup
// visited set, but older run directories hold it as a "dedup" array of
// fingerprints and paths. Open must accept such a checkpoint with every
// other field intact, and the next Save must drop the array.
func TestOpenSkipsStoredDedupSet(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	s, err := Create(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	old := `{"seq":3,"done":false,"executions":42,"violations":1,"max_proc_steps":9,` +
		`"max_faults":2,"capped":true,"best_path":[0,1,1],"best_len":7,` +
		`"first_violation_ns":1234,"elapsed_ns":5678,` +
		`"tasks":[{"path":[1,0],"floor":1},{"path":null,"floor":0}],` +
		`"dedup":[{"hi":1,"lo":2,"path":[0]},{"hi":18446744073709551615,"lo":3,"path":[1,0,2]}]}`
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	o, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	want := &Checkpoint{
		Seq: 3, Executions: 42, Violations: 1, MaxProcSteps: 9, MaxFaults: 2,
		Capped: true, BestPath: []int{0, 1, 1}, BestLen: 7,
		FirstViolationNS: 1234, ElapsedNS: 5678,
		Tasks: []Task{{Path: []int{1, 0}, Floor: 1}, {Path: nil, Floor: 0}},
	}
	if got := o.Checkpoint(); !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint = %+v, want %+v", got, want)
	}

	if err := o.Save(o.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"dedup"`) {
		t.Errorf("saved checkpoint still holds a dedup section: %s", data)
	}
}

func TestCreateRefusesExistingRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, testManifest()); err == nil {
		t.Fatal("Create over an existing run must fail")
	}
}

func TestVerifyMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	s, err := Create(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(testManifest()); err != nil {
		t.Fatalf("matching manifest rejected: %v", err)
	}
	changed := testManifest()
	changed.Inputs = []int64{10, 11, 12}
	if err := s.Verify(changed); !errors.Is(err, ErrMismatch) {
		t.Fatalf("err = %v, want ErrMismatch", err)
	}
	// Tuning fields do not participate in the hash.
	tuned := testManifest()
	tuned.MaxExecutions = 999
	tuned.Dedup = true
	if err := s.Verify(tuned); err != nil {
		t.Fatalf("tuning-only change rejected: %v", err)
	}
}

func TestOpenRejectsCorruptManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	s, err := Create(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	_ = s

	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	m.Inputs = []int64{1, 2, 3} // tamper without rehashing
	tampered, _ := json.Marshal(&m)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("err = %v, want hash mismatch", err)
	}
}

func TestOpenRejectsFutureFormat(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(filepath.Join(dir, "manifest.json"))
	var m Manifest
	_ = json.Unmarshal(data, &m)
	m.FormatVersion = FormatVersion + 1
	tampered, _ := json.Marshal(&m)
	os.WriteFile(filepath.Join(dir, "manifest.json"), tampered, 0o644)
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("err = %v, want format rejection", err)
	}
}

// TestOpenRefusesLiveOwner: a run directory whose owner lock names a live
// process must be refused with the typed ErrLocked, not silently shared —
// two processes checkpointing into one directory would corrupt both runs.
func TestOpenRefusesLiveOwner(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	// Forge the lock as another live process: PID 1 always exists.
	rec, _ := json.Marshal(&ownerLock{PID: 1, CreatedAt: "2026-01-01T00:00:00Z"})
	if err := os.WriteFile(filepath.Join(dir, lockFile), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("err = %v, want ErrLocked", err)
	}
	var le *LockedError
	if !errors.As(err, &le) || le.PID != 1 {
		t.Fatalf("err = %#v, want *LockedError naming PID 1", err)
	}
}

// TestOpenReplacesDeadOwnerLock: a lock left by a SIGKILLed process (its PID
// no longer exists) is stale debris, not a live claim; Open replaces it.
func TestOpenReplacesDeadOwnerLock(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	// A PID above the kernel's default pid_max cannot name a live process.
	rec, _ := json.Marshal(&ownerLock{PID: 1 << 30, CreatedAt: "2026-01-01T00:00:00Z"})
	if err := os.WriteFile(filepath.Join(dir, lockFile), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open over a dead owner's lock: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLeavesNoTempFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	s, err := Create(dir, testManifest())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Save(&Checkpoint{Executions: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if len(entries) != 3 {
		t.Fatalf("run dir holds %d files, want manifest + checkpoint + owner lock", len(entries))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("run dir holds %d files after Close, want manifest + checkpoint", len(entries))
	}
}
