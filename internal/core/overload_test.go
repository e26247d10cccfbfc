// Overload-control tests: admission gating (shed, queue, expiry, critical
// bypass), end-to-end operation deadlines over slow I/O, and the shared
// memory budget. These pin the contract documented in DESIGN.md §10: under
// overload the store degrades predictably with typed errors, and a deadline
// can end a long scan but never half-apply an update or degrade the store.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pagestore"
	"repro/internal/xmltok"
)

// parkReader starts a Scan that blocks inside its callback, holding one
// admission slot (and the store's shared lock) until release is closed.
// It returns once the reader is parked.
func parkReader(t *testing.T, s *Store) (release chan struct{}, done chan error) {
	t.Helper()
	parked := make(chan struct{})
	release = make(chan struct{})
	done = make(chan error, 1)
	go func() {
		first := true
		done <- s.Scan(func(Item) bool {
			if first {
				first = false
				close(parked)
				<-release
			}
			return false
		})
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("reader never reached its callback")
	}
	return release, done
}

func TestAdmissionQueuesThenSheds(t *testing.T) {
	s := openStore(t, Config{MaxConcurrentOps: 1, MaxQueuedOps: 1})
	if _, err := s.Append(figure1()); err != nil {
		t.Fatal(err)
	}

	release, parkedDone := parkReader(t, s) // holds the only slot

	// A second reader fills the one queue seat.
	queuedDone := make(chan error, 1)
	go func() {
		_, err := s.ReadAllCtx(context.Background())
		queuedDone <- err
	}()
	waitFor(t, func() bool { return s.Stats().Admission.Waiting == 1 })

	// A third arrival finds slot and queue full: shed, typed, immediately.
	if _, err := s.ReadAll(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated store returned %v, want ErrOverloaded", err)
	}

	close(release)
	if err := <-parkedDone; err != nil {
		t.Fatalf("parked reader: %v", err)
	}
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued reader should run once the slot frees: %v", err)
	}

	st := s.Stats().Admission
	if st.Shed != 1 || st.Queued != 1 || st.Admitted < 2 {
		t.Fatalf("counters = %+v, want 1 shed, 1 queued, >=2 admitted", st)
	}
	if st.InFlight != 0 || st.Waiting != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
}

func TestAdmissionQueuedOpExpires(t *testing.T) {
	s := openStore(t, Config{MaxConcurrentOps: 1, MaxQueuedOps: 4})
	if _, err := s.Append(figure1()); err != nil {
		t.Fatal(err)
	}
	release, parkedDone := parkReader(t, s)
	defer func() { close(release); <-parkedDone }()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.ReadAllCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued reader returned %v, want DeadlineExceeded", err)
	}
	if st := s.Stats().Admission; st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1 (%+v)", st.Expired, st)
	}
}

// TestOpTimeoutBoundsQueueWait pins that Config.OpTimeout applies even when
// the caller brings no context at all: a legacy no-ctx call stuck in the
// admission queue times out instead of waiting forever.
func TestOpTimeoutBoundsQueueWait(t *testing.T) {
	s := openStore(t, Config{MaxConcurrentOps: 1, MaxQueuedOps: 4, OpTimeout: 30 * time.Millisecond})
	if _, err := s.Append(figure1()); err != nil {
		t.Fatal(err)
	}
	// The parked reader holds its slot past its own deadline: it only
	// observes ctx at scan boundaries, and it is parked inside the callback.
	parked := make(chan struct{})
	release := make(chan struct{})
	parkedDone := make(chan error, 1)
	go func() {
		first := true
		parkedDone <- s.ScanCtx(context.Background(), func(Item) bool {
			if first {
				first = false
				close(parked)
				<-release
			}
			return false
		})
	}()
	<-parked
	defer func() { close(release); <-parkedDone }()

	start := time.Now()
	_, err := s.ReadAll()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued no-ctx reader returned %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("timeout took %v, want ~OpTimeout", el)
	}
}

// TestOpTimeoutArmsNoTimer: an uncontended operation under OpTimeout, whose
// caller brought no deadline, waits on nothing, so it arms no timer and
// forwards no cancellation: it costs one allocation, its context, over the
// same operation on a store without OpTimeout. A deadline is still there to
// poll, and a queued wait still honors it (TestOpTimeoutBoundsQueueWait).
func TestOpTimeoutArmsNoTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	allocs := func(cfg Config) float64 {
		s := openStore(t, cfg)
		root, err := s.Append(figure1())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, _, err := s.Parent(root + 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain, timed := allocs(Config{}), allocs(Config{OpTimeout: 10 * time.Second})
	if timed > plain+1 {
		t.Errorf("an uncontended op under OpTimeout allocates %v, without it %v: want at most one more", timed, plain)
	}
}

// TestDeadlineCtxContract: the OpTimeout context keeps the context contract
// although it arms its timer late. Done closes at the deadline and when the
// parent is cancelled — before or after the first Done call — and Err agrees;
// a context derived from it is cancelled with it; ending it is final.
func TestDeadlineCtxContract(t *testing.T) {
	closes := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		case <-time.After(5 * time.Second):
			return false
		}
	}
	d := newDeadlineCtx(context.Background(), 20*time.Millisecond)
	if err := d.Err(); err != nil {
		t.Fatalf("fresh: %v", err)
	}
	child, cancelChild := context.WithCancel(d)
	defer cancelChild()
	if !closes(d.Done()) || !errors.Is(d.Err(), context.DeadlineExceeded) {
		t.Fatalf("at the deadline: %v", d.Err())
	}
	if !closes(child.Done()) {
		t.Fatal("a derived context outlived the deadline")
	}

	for _, doneFirst := range []bool{true, false} {
		parent, cancel := context.WithCancel(context.Background())
		d := newDeadlineCtx(parent, time.Hour)
		var done <-chan struct{}
		if doneFirst {
			done = d.Done()
		}
		cancel()
		if !doneFirst {
			if err := d.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("parent cancelled, Done not called: Err %v", err)
			}
			done = d.Done()
		}
		if !closes(done) || !errors.Is(d.Err(), context.Canceled) {
			t.Fatalf("parent cancelled (Done first %v): Err %v", doneFirst, d.Err())
		}
	}

	d = newDeadlineCtx(context.Background(), time.Hour)
	d.end(context.Canceled)
	if !closes(d.Done()) || !errors.Is(d.Err(), context.Canceled) {
		t.Fatalf("ended: Err %v", d.Err())
	}
	if dl, ok := d.Deadline(); !ok || time.Until(dl) < 59*time.Minute {
		t.Fatalf("deadline %v %v", dl, ok)
	}
}

func TestAdmissionDisabled(t *testing.T) {
	s := openStore(t, Config{MaxConcurrentOps: -1})
	if _, err := s.Append(figure1()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAll(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().Admission; st.Admitted != 0 {
		t.Fatalf("disabled gate still counting: %+v", st)
	}
}

// syncedMemPager adds the no-op Sync a fault.InnerPager needs.
type syncedMemPager struct{ *pagestore.MemPager }

func (syncedMemPager) Sync() error { return nil }

// bigDoc builds a flat document with n children, each with an attribute and
// a text payload — enough token bytes to spread across many pages.
func bigDoc(n int) []Token {
	var b strings.Builder
	b.WriteString(`<doc>`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<e i="%d">payload-%d-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx</e>`, i, i)
	}
	b.WriteString(`</doc>`)
	return xmltok.MustParse(b.String())
}

// TestDeadlineExceededDuringSlowScan is the deadline-propagation pin: with
// every page read slowed by injected latency, a full-document scan under
// OpTimeout must return context.DeadlineExceeded within about 2x the
// timeout (the checks sit at page-fetch boundaries, so overshoot is bounded
// by one page fetch), and the store must stay fully healthy afterwards —
// a deadline is load shedding, not a fault.
func TestDeadlineExceededDuringSlowScan(t *testing.T) {
	const (
		pageSize  = 4096
		opTimeout = 100 * time.Millisecond
		ioDelay   = 5 * time.Millisecond
	)
	inj := fault.NewInjector(fault.Config{})
	p := fault.NewPager(inj, syncedMemPager{pagestore.NewMemPager(pageSize)})
	s := openStore(t, Config{
		Mode: RangeOnly, Pager: p, PageSize: pageSize,
		PoolPages: 4, MaxRangeTokens: 64, OpTimeout: opTimeout,
	})
	root, err := s.Append(bigDoc(4000))
	if err != nil {
		t.Fatal(err)
	}

	inj.ArmLatency(ioDelay)
	start := time.Now()
	scanErr := s.ScanNode(root, func(Item) bool { return true })
	elapsed := time.Since(start)
	inj.DisarmLatency()

	if !errors.Is(scanErr, context.DeadlineExceeded) {
		t.Fatalf("slow scan returned %v, want DeadlineExceeded", scanErr)
	}
	if elapsed > 2*opTimeout {
		t.Errorf("deadline honored after %v, want within 2x OpTimeout (%v)", elapsed, 2*opTimeout)
	}

	// The store is not degraded: reads, writes and verification all work.
	if _, err := s.ReadNode(root + 1); err != nil {
		t.Fatalf("read after deadline: %v", err)
	}
	if _, err := s.InsertIntoLast(root, figure1()); err != nil {
		t.Fatalf("insert after deadline: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("verify after deadline: %v", err)
	}
}

// TestDeadlineNeverHalfAppliesUpdate pins the mutator contract: a deadline
// that fires during an update's locate phase rejects the whole operation;
// one that fires after the apply phase began does not tear it. Either way
// CheckInvariants stays clean.
func TestDeadlineNeverHalfAppliesUpdate(t *testing.T) {
	const pageSize = 4096
	inj := fault.NewInjector(fault.Config{})
	p := fault.NewPager(inj, syncedMemPager{pagestore.NewMemPager(pageSize)})
	s := openStore(t, Config{
		Mode: RangeOnly, Pager: p, PageSize: pageSize,
		PoolPages: 4, MaxRangeTokens: 64, OpTimeout: 50 * time.Millisecond,
	})
	root, err := s.Append(bigDoc(4000))
	if err != nil {
		t.Fatal(err)
	}
	before := s.Stats()

	inj.ArmLatency(5 * time.Millisecond)
	// Locating the far end of the document walks enough slow pages to blow
	// the deadline before the splice starts.
	_, insErr := s.InsertIntoLast(root, figure1())
	inj.DisarmLatency()
	if !errors.Is(insErr, context.DeadlineExceeded) {
		t.Fatalf("slow insert returned %v, want DeadlineExceeded", insErr)
	}

	after := s.Stats()
	if after.Nodes != before.Nodes || after.Tokens != before.Tokens {
		t.Fatalf("timed-out insert changed the store: %d/%d nodes, %d/%d tokens",
			before.Nodes, after.Nodes, before.Tokens, after.Tokens)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after timed-out insert: %v", err)
	}
	// And with the disk fast again the same insert goes through.
	if _, err := s.InsertIntoLast(root, figure1()); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
}

// TestMemoryBudgetBoundsCaches loads and reads far more data than the
// budget allows and checks the accounting: the combined footprint of pool
// frames, partial entries and checkpoints settles at or under the limit,
// with budget-pressure evictions doing the shedding.
func TestMemoryBudgetBoundsCaches(t *testing.T) {
	const limit = int64(96 << 10)
	s := openStore(t, Config{
		Mode: RangePartial, PageSize: 4096, PoolPages: 1024,
		PartialCapacity: 1 << 16, MaxRangeTokens: 64, MemoryBudget: limit,
	})
	root, err := s.Append(bigDoc(4000)) // ~300KB of token bytes, 3x the budget
	if err != nil {
		t.Fatal(err)
	}
	// Random-ish reads warm every cache class: pool frames, partial-index
	// entries, replay checkpoints.
	for i := 0; i < 400; i++ {
		id := root + NodeID(1+(i*37)%8000)
		if _, err := s.ReadNode(id); err != nil && !errors.Is(err, ErrNoSuchNode) {
			t.Fatal(err)
		}
	}

	m := s.Stats().Memory
	if m.Limit != limit {
		t.Fatalf("Limit = %d, want %d", m.Limit, limit)
	}
	// One in-flight charge per class may still be above water when the
	// final deferred shed ran; allow a page of slack, no more.
	if slack := int64(4096 + 512); m.Used > limit+slack {
		t.Fatalf("Used = %d bytes, want <= %d (+%d slack): %+v", m.Used, limit, slack, m)
	}
	if m.Evictions == 0 {
		t.Fatalf("no budget-pressure evictions despite 3x oversubscription: %+v", m)
	}
	if m.PoolBytes+m.PartialBytes+m.CheckpointBytes != m.Used {
		t.Fatalf("class bytes do not sum to Used: %+v", m)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
