package ledger

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock lets tests move lease expiry deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// newFakeClock starts at the real current time so that Merge and Status —
// which always inspect with the real clock — agree with the fake timeline
// until a test explicitly advances it.
func newFakeClock() *fakeClock { return &fakeClock{t: time.Now()} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func join(t *testing.T, dir, owner string, clk *fakeClock) *Ledger {
	t.Helper()
	l, _, err := Join(dir, owner, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if clk != nil {
		l.now = clk.now
	}
	l.poll = time.Millisecond
	return l
}

func TestJoinSeedsRootOnce(t *testing.T) {
	dir := t.TempDir()
	a, created, err := Join(dir, "a", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Fatal("first join should create the ledger")
	}
	b, created, err := Join(dir, "b", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("second join must adopt, not create")
	}
	if a.Epoch() != b.Epoch() {
		t.Fatalf("epochs diverge: %d vs %d", a.Epoch(), b.Epoch())
	}
	if b.TTL() != time.Second {
		t.Fatalf("joiner TTL = %v, want the creator's 1s", b.TTL())
	}
	ents, err := os.ReadDir(filepath.Join(dir, "ledger", "tasks"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("tasks dir holds %d entries, want exactly the root task", len(ents))
	}
}

// TestJoinWaitsForCreatorsRoot: a joiner that arrives after the creator's
// marker but before its root task must not see an empty ledger.
func TestJoinWaitsForCreatorsRoot(t *testing.T) {
	dir := t.TempDir()
	ldir := filepath.Join(dir, ledgerDir)
	for _, sub := range []string{tasksDir, leasesDir, resultsDir} {
		if err := os.MkdirAll(filepath.Join(ldir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.Marshal(&marker{LedgerEpoch: 1, LeaseTTLNS: int64(time.Second), CreatedBy: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ldir, markerFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		(&Ledger{dir: ldir}).linkTask(Task{ID: TaskID(nil, 0), Path: []int{}}) //nolint:errcheck // checked by the claim below
	}()
	b := join(t, dir, "b", nil)
	if _, err := b.Claim(context.Background()); err != nil {
		t.Fatalf("joiner's first claim: %v", err)
	}
}

func TestClaimExclusiveAndDrain(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	ctx := context.Background()
	ls, err := a.Claim(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ls.ID != TaskID(nil, 0) || ls.Epoch != 0 {
		t.Fatalf("claimed %s@%d, want root@0", ls.ID, ls.Epoch)
	}

	// b sees a's live lease: no task to claim, not drained — times out.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := b.Claim(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("concurrent claim: err = %v, want deadline (blocked on live lease)", err)
	}

	if err := a.Release(ls, &Result{Executions: 42, ElapsedNS: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Claim(ctx); !errors.Is(err, ErrDrained) {
		t.Fatalf("claim after full coverage: err = %v, want ErrDrained", err)
	}

	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 42 || m.Results != 1 || len(m.Participants) != 1 || m.Participants[0] != "a" {
		t.Fatalf("merged = %+v", m)
	}
}

// TestRenewRequeuesOrphanedClaim: a claimer that stalls past its TTL between
// linking its lease and unlinking the task file loses the lease to a reaper
// that still sees the task file (a claim never started: only the lease is
// dropped); the claimer then unlinks the task file, and no task, lease or
// result covers the subtree. The claimer's next renew must re-enqueue it.
func TestRenewRequeuesOrphanedClaim(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	ls, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The end state of that race: the lease is gone, and so is the task file.
	if err := os.Remove(filepath.Join(dir, ledgerDir, leasesDir, leaseName(ls.ID))); err != nil {
		t.Fatal(err)
	}
	if err := a.Renew(ls); !errors.Is(err, ErrFenced) {
		t.Fatalf("renew without a lease: err = %v, want ErrFenced", err)
	}
	got, err := b.Claim(context.Background())
	if err != nil {
		t.Fatalf("orphaned subtree was not re-enqueued: %v", err)
	}
	if got.ID != ls.ID || got.Epoch != ls.Epoch+1 {
		t.Fatalf("claimed %s@%d, want %s@%d", got.ID, got.Epoch, ls.ID, ls.Epoch+1)
	}
}

// TestReapKeepsSuccessorsLease: a reaper acts on its scan; by the time it
// removes the expired lease, a claimer may already hold the re-enqueued
// subtree under a fresh lease of the same name, which must survive.
func TestReapKeepsSuccessorsLease(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)
	ls, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)
	st, err := b.scan()
	if err != nil {
		t.Fatal(err)
	}
	succ := Lease{Task: Task{ID: ls.ID, Epoch: ls.Epoch + 1, Path: ls.Path}, Owner: "c",
		ExpiresUnixNano: clk.now().Add(time.Second).UnixNano()}
	data, err := json.Marshal(&succ)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ledgerDir, leasesDir, leaseName(ls.ID))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := b.reap(st); err != nil {
		t.Fatal(err)
	}
	var cur Lease
	if !readJSON(path, &cur) || cur.Owner != "c" || cur.Epoch != succ.Epoch {
		t.Fatalf("reap removed the successor's lease (now %+v)", cur)
	}
}

func TestRenewExtendsAndExpiryReclaims(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	ls, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(700 * time.Millisecond)
	if err := a.Renew(ls); err != nil {
		t.Fatal(err)
	}
	// Past the original expiry but within the renewed one: still held.
	clk.advance(700 * time.Millisecond)
	short, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := b.Claim(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("renewed lease was not honored: %v", err)
	}

	// Let it expire: b reclaims the subtree at epoch 1.
	clk.advance(2 * time.Second)
	got, err := b.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != ls.ID || got.Epoch != ls.Epoch+1 {
		t.Fatalf("reclaimed %s@%d, want %s@%d", got.ID, got.Epoch, ls.ID, ls.Epoch+1)
	}

	// The dead claimant is fenced: renew and publish both refuse.
	if err := a.Renew(ls); !errors.Is(err, ErrFenced) {
		t.Fatalf("renew after reclaim: err = %v, want ErrFenced", err)
	}
	if err := a.Release(ls, &Result{Executions: 1}); !errors.Is(err, ErrFenced) {
		t.Fatalf("publish after reclaim: err = %v, want ErrFenced", err)
	}

	// Only b's result counts.
	if err := b.Release(got, &Result{Executions: 9}); err != nil {
		t.Fatal(err)
	}
	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 9 || m.Results != 1 {
		t.Fatalf("merged = %+v, want only the reclaimer's 9 executions", m)
	}
}

func TestExportAndLineageFencing(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	root, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// a carves a child subtree out of its claim and b runs it to completion.
	if err := a.Export(root, []int{1}, 0); err != nil {
		t.Fatal(err)
	}
	child, err := b.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if child.ID != TaskID([]int{1}, 0) {
		t.Fatalf("claimed %s, want the exported child", child.ID)
	}
	if len(child.Lineage) != 1 || child.Lineage[0].ID != root.ID || child.Lineage[0].Epoch != root.Epoch {
		t.Fatalf("child lineage = %+v, want [{root, 0}]", child.Lineage)
	}
	if err := b.Release(child, &Result{Executions: 10}); err != nil {
		t.Fatal(err)
	}

	// a dies mid-claim; its root lease expires and is reclaimed. The re-run
	// covers the WHOLE root subtree, so the child's published result must
	// be excluded by lineage supersession — not double-counted.
	clk.advance(3 * time.Second)
	reclaimed, err := b.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed.ID != root.ID || reclaimed.Epoch != root.Epoch+1 {
		t.Fatalf("reclaimed %s@%d, want root@1", reclaimed.ID, reclaimed.Epoch)
	}
	if err := b.Release(reclaimed, &Result{Executions: 100}); err != nil {
		t.Fatal(err)
	}

	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 100 {
		t.Fatalf("merged executions = %d, want 100 (child of dead lineage excluded)", m.Executions)
	}
	if m.Reclaims == 0 {
		t.Fatal("merge should report the excluded orphan result")
	}
}

// TestExportRefusesOwnClaim: exporting a claim's own (path, floor) would
// bump the task's epoch past the live lease — fencing the exporter — and
// leave a task whose lineage supersedes itself, which debris collection
// would then silently drop. The ledger must refuse it outright.
func TestExportRefusesOwnClaim(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)

	root, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Export(root, root.Path, root.Floor); err == nil {
		t.Fatal("self-export succeeded; want an error")
	}
	// The claim is untouched: still renewable and publishable.
	if err := a.Renew(root); err != nil {
		t.Fatalf("renew after refused self-export: %v", err)
	}
	if err := a.Release(root, &Result{Executions: 5}); err != nil {
		t.Fatalf("release after refused self-export: %v", err)
	}
	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 5 {
		t.Fatalf("merged executions = %d, want 5", m.Executions)
	}
}

func TestAbandonReenqueuesAtNextEpoch(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)

	ls, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Export(ls, []int{0}, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Abandon(ls); err != nil {
		t.Fatal(err)
	}

	// The abandoned task comes back at epoch+1 — fencing the exported
	// child, whose region the re-run covers.
	got, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != ls.ID || got.Epoch != ls.Epoch+1 {
		t.Fatalf("re-claimed %s@%d, want %s@%d", got.ID, got.Epoch, ls.ID, ls.Epoch+1)
	}
	if err := a.Release(got, &Result{Executions: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Claim(context.Background()); !errors.Is(err, ErrDrained) {
		t.Fatalf("err = %v, want ErrDrained (child task superseded by abandon bump)", err)
	}
	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 5 {
		t.Fatalf("merged executions = %d, want 5", m.Executions)
	}
}

func TestMergeRefusesWhileWorkRemains(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)

	// Unclaimed root task.
	var inc *IncompleteError
	if _, err := Merge(dir, false); !errors.As(err, &inc) || inc.Tasks != 1 {
		t.Fatalf("err = %v, want IncompleteError{Tasks: 1}", err)
	}

	// Live lease.
	ls, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(dir, false); !errors.As(err, &inc) || inc.LiveLeases != 1 {
		t.Fatalf("err = %v, want IncompleteError{LiveLeases: 1}", err)
	}

	// Expired, unreclaimed lease. Merge inspects with the real clock, so
	// move the lease's expiry into the real past via the fake clock delta.
	clk.advance(-2 * time.Hour)
	if err := a.Renew(ls); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(dir, false); !errors.As(err, &inc) || inc.ExpiredLeases != 1 {
		t.Fatalf("err = %v, want IncompleteError{ExpiredLeases: 1}", err)
	}
}

func TestMergeCounterexampleOrdering(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	root, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Export(root, []int{2}, 0); err != nil {
		t.Fatal(err)
	}
	child, err := b.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The child (deeper region, lex-greater path) finds a SHORTER schedule;
	// the root finds the lex-least path.
	if err := b.Release(child, &Result{
		Executions: 3, Violations: 1, HasBest: true, BestPath: []int{2, 0}, BestLen: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(root, &Result{
		Executions: 7, Violations: 2, HasBest: true, BestPath: []int{0, 1}, BestLen: 9,
	}); err != nil {
		t.Fatal(err)
	}

	lex, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if !lex.HasBest || lex.BestPath[0] != 0 {
		t.Fatalf("default mode best = %+v, want lex-least [0 1]", lex.BestPath)
	}
	ex, err := Merge(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.HasBest || ex.BestLen != 4 {
		t.Fatalf("exhaustive mode best len = %d, want 4 (shortest schedule)", ex.BestLen)
	}
	if lex.Violations != 3 || lex.Executions != 10 {
		t.Fatalf("merged = %+v, want violations 3, executions 10", lex)
	}
}

func TestStatusReportsParticipantsAndLeases(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := join(t, dir, "a", clk)
	b := join(t, dir, "b", clk)

	root, err := a.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Export(root, []int{0}, 0); err != nil {
		t.Fatal(err)
	}
	child, err := b.Claim(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Release(child, &Result{Executions: 11}); err != nil {
		t.Fatal(err)
	}

	rs, err := Status(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Participants) != 2 {
		t.Fatalf("participants = %v, want a and b", rs.Participants)
	}
	// a still holds the root lease (expiry ~1s out on the real clock Status
	// inspects with).
	if rs.LeasesLive+rs.LeasesExpired != 1 {
		t.Fatalf("leases = %d live + %d expired, want 1 total", rs.LeasesLive, rs.LeasesExpired)
	}
	if rs.Results != 1 || rs.MergedExecutions != 11 {
		t.Fatalf("status = %+v, want 1 result / 11 merged executions", rs)
	}
	if rs.Drained {
		t.Fatal("status claims drained while a lease is held")
	}
}

// TestClaimRaceSingleWinner hammers one task with concurrent claimers from
// several handles: exactly one wins each round.
func TestClaimRaceSingleWinner(t *testing.T) {
	dir := t.TempDir()
	handles := make([]*Ledger, 8)
	for i := range handles {
		handles[i] = join(t, dir, string(rune('a'+i)), nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var mu sync.Mutex
	winners := 0
	var wg sync.WaitGroup
	for _, h := range handles {
		wg.Add(1)
		go func(l *Ledger) {
			defer wg.Done()
			ls, err := l.Claim(ctx)
			if err != nil {
				return // drained or timed out: someone else won
			}
			mu.Lock()
			winners++
			mu.Unlock()
			l.Release(ls, &Result{Executions: 1})
		}(h)
	}
	wg.Wait()
	if winners != 1 {
		t.Fatalf("%d claim winners, want exactly 1", winners)
	}
	m, err := Merge(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Executions != 1 {
		t.Fatalf("merged executions = %d, want 1", m.Executions)
	}
}

// TestScanIgnoresLeftoverTempFiles: a participant killed between writing a
// temp file and linking it leaves "<name>.tmp…" behind, and it must not
// shadow the live record of the same id. Read as records, a leftover task
// with a dead lineage made Claim delete the live root task as debris (the
// drained merge then lacked its executions), and a leftover expired lease
// made reap "reclaim" it forever.
func TestScanIgnoresLeftoverTempFiles(t *testing.T) {
	dir := t.TempDir()
	a := join(t, dir, "a", nil)
	root := TaskID(nil, 0)
	leftover := func(sub, name string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ledgerDir, sub, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	leftover(tasksDir, taskName(root)+".tmp1", Task{ID: root, Lineage: []Ref{{ID: root, Epoch: -1}}})
	leftover(leasesDir, leaseName(root)+".tmp2", Lease{Task: Task{ID: root}, Owner: "dead", ExpiresUnixNano: 1})

	done := make(chan error, 1)
	var ls *Lease
	go func() {
		var err error
		ls, err = a.Claim(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("claim: %v", err)
		}
		if ls.ID != root || ls.Epoch != 0 {
			t.Fatalf("claimed %s@%d, want root@0", ls.ID, ls.Epoch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Claim did not return: it reaps the leftover temp lease forever")
	}
}
