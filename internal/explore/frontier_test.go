package explore

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestChooserDonateLastOpenBranch: when the only branch point with untaken
// alternatives is carved off, the donor must hand over ONE consolidated task
// covering all of those alternatives and then have nothing left to backtrack
// into — donating the last open branch ends the donor's own enumeration
// after the current path.
func TestChooserDonateLastOpenBranch(t *testing.T) {
	// Depth 0 is the single open branch point (choice 0 of arity 3);
	// depths 1 and 2 are exhausted.
	c := &chooser{path: []int{0, 1, 1}, arity: []int{3, 2, 2}, pos: 3}

	p, floor, ok := c.donate()
	if !ok || !reflect.DeepEqual(p, []int{1}) || floor != 0 {
		t.Fatalf("donate() = %v, %d, %v, want [1], 0, true", p, floor, ok)
	}
	if c.lb != 1 {
		t.Fatalf("donation must raise the floor past the donated branch: lb = %d, want 1", c.lb)
	}
	if c.next() {
		t.Fatalf("donor backtracked to %v after donating its last open branch", c.path)
	}
	// Nothing further to give away either.
	if p, _, ok := c.donate(); ok {
		t.Fatalf("second donate() = %v, want none", p)
	}

	// The donated task enumerates the REMAINING alternatives itself: a
	// recipient chooser seeded with (path, floor) and the same arity
	// advances from alternative 1 to alternative 2, then exhausts.
	rc := &chooser{path: append(p, 1), arity: []int{3, 2}, pos: 2, lb: floor}
	if !rc.next() || !reflect.DeepEqual(rc.path, []int{2}) {
		t.Fatalf("recipient next() -> %v, want [2]", rc.path)
	}
	rc.arity = rc.arity[:1]
	if rc.next() {
		t.Fatalf("recipient backtracked past its floor to %v", rc.path)
	}
}

// TestChooserDonateNothingOpen: a chooser whose whole remaining subtree is
// exhausted donates nothing and leaves its floor untouched.
func TestChooserDonateNothingOpen(t *testing.T) {
	c := &chooser{path: []int{1, 1}, arity: []int{2, 2}, pos: 2}
	if p, _, ok := c.donate(); ok {
		t.Fatalf("donate() = %v, want none", p)
	}
	if c.lb != 0 {
		t.Fatalf("failed donation moved the floor to %d", c.lb)
	}
}

// TestFrontierDonationRacingAbort: donations pushed while the frontier is
// being aborted must neither deadlock a waiting worker nor be lost from the
// post-abort snapshot — abort fails future pops but keeps queued tasks, and
// the aborted worker's unfinished claim stays in its slot.
func TestFrontierDonationRacingAbort(t *testing.T) {
	root := task{path: []int{0}, floor: 1}
	fr := newFrontier([]task{root}, 2)

	// Worker 0 claims the root task; worker 1 blocks in pop.
	got, ok := fr.pop(0)
	if !ok || !reflect.DeepEqual(got.path, root.path) {
		t.Fatalf("pop(0) = %v, %v", got, ok)
	}
	popped := make(chan bool, 1)
	go func() {
		_, ok := fr.pop(1)
		popped <- ok
	}()

	// Donation and abort race from separate goroutines.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		fr.donate(0, task{path: []int{0, 1}, floor: 2}, false, []int{0, 0, 1}, 1, func() {})
	}()
	go func() {
		defer wg.Done()
		fr.abort()
	}()
	wg.Wait()

	// Worker 1 must be released; whether it won the donation or saw the
	// abort first, it must not hang.
	select {
	case ok := <-popped:
		if ok {
			fr.release(1, true, nil, 0, func() {})
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pop(1) still blocked after abort")
	}

	// Worker 0 abandons its task (as engine workers do on cancellation):
	// the claim stays in its slot.
	fr.release(0, false, []int{0, 0, 1}, 1, func() {})
	if _, ok := fr.pop(0); ok {
		t.Fatal("pop succeeded after abort")
	}

	// The snapshot must cover worker 0's unfinished claim, and — unless
	// worker 1 already claimed it — the donation pushed during the abort.
	snap := fr.snapshot(func() {})
	foundClaim := false
	for _, task := range snap {
		if reflect.DeepEqual(task.path, []int{0, 0, 1}) && task.floor == 1 {
			foundClaim = true
		}
	}
	if !foundClaim {
		t.Fatalf("snapshot %v lost the aborted worker's published claim", snap)
	}
}

// TestFrontierAbandonedTaskKeepsSlot: release(w, false, ...) must keep the
// task visible to snapshot at the position it was released at — this is
// what makes a cancelled run's checkpoint cover work the worker never
// finished — and settle must run in the same step.
func TestFrontierAbandonedTaskKeepsSlot(t *testing.T) {
	fr := newFrontier([]task{{path: []int{2}, floor: 1}}, 1)
	if _, ok := fr.pop(0); !ok {
		t.Fatal("pop failed on a non-empty frontier")
	}
	settled := false
	fr.release(0, false, []int{2, 1}, 1, func() { settled = true })
	if !settled {
		t.Fatal("release did not settle the lease")
	}
	snap := fr.snapshot(func() {})
	if len(snap) != 1 || !reflect.DeepEqual(snap[0].path, []int{2, 1}) || snap[0].floor != 1 {
		t.Fatalf("snapshot = %v, want the abandoned task at [2 1] floor 1", snap)
	}

	// A finished task, by contrast, leaves no residue.
	fr2 := newFrontier([]task{{path: []int{3}, floor: 1}}, 1)
	if _, ok := fr2.pop(0); !ok {
		t.Fatal("pop failed on a non-empty frontier")
	}
	fr2.release(0, true, nil, 0, func() {})
	if snap := fr2.snapshot(func() {}); len(snap) != 0 {
		t.Fatalf("snapshot after finished task = %v, want empty", snap)
	}
}
