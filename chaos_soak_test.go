// Chaos soak: concurrent readers, writers and batches hammer one
// WAL-backed store while the harness injects slow I/O, a full disk and
// admission-gate pressure. The pass criteria are the overload-proofing
// contract itself:
//
//   - every error any worker sees is typed (ErrOverloaded, a context
//     deadline, ENOSPC, ErrReadOnly) — never a raw internal
//     failure or a corrupt-page report;
//   - nothing deadlocks: the soak completes under a watchdog;
//   - the heap stays bounded by the configured MemoryBudget plus slack;
//   - after the dust settles, Verify and CheckInvariants are clean.
//
// The default run is a few seconds; AXML_NIGHTLY=1 multiplies the duration
// and iteration counts for the scheduled CI soak (scripts/check.sh runs it
// under -race either way).
package axml_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	axml "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/internal/xpath"
	"repro/internal/xquery"
)

// nightly reports whether the long soak was requested (scheduled CI).
func nightly() bool { return os.Getenv("AXML_NIGHTLY") != "" }

// allowedChaosErr classifies an error seen by a soak worker: every failure
// under injected chaos must map to one of the typed, documented error
// conditions. Anything else — and especially a corrupt-page error — fails
// the soak.
func allowedChaosErr(err error) bool {
	for _, target := range []error{
		axml.ErrOverloaded,       // admission gate shed
		context.DeadlineExceeded, // OpTimeout / caller deadline
		context.Canceled,         // soak shutdown mid-wait
		fault.ErrDiskFull,        // injected ENOSPC
		syscall.ENOSPC,           //
		axml.ErrReadOnly,         // degrade latch after a failed commit
		axml.ErrNoSuchNode,       // racing a concurrent delete
	} {
		if errors.Is(err, target) {
			return true
		}
	}
	return false
}

func TestChaosSoak(t *testing.T) {
	duration := 1500 * time.Millisecond
	if nightly() {
		duration = 20 * time.Second
	}
	const (
		pageSize     = 4096
		memoryBudget = int64(1 << 20)
	)

	dir := t.TempDir()
	db := filepath.Join(dir, "store.db")
	inj := fault.NewInjector(fault.Config{})
	wp, err := wal.OpenWithOptions(db, pageSize, wal.Options{
		WrapPager: func(ip wal.InnerPager) wal.InnerPager { return fault.NewPager(inj, ip) },
		WrapLog:   func(f wal.File) wal.File { return fault.NewFile(inj, f) },
		Retries:   -1, // injected ENOSPC is deliberate; don't sit in retry loops
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.Open(core.Config{
		Mode: core.RangePartial, Pager: wp, PageSize: pageSize,
		PoolPages: 64, MaxRangeTokens: 128, PartialCapacity: 1 << 14,
		// Fewer slots than workers: the soak must actually drive the gate
		// into queuing and shedding, not just run alongside it.
		OpTimeout:        200 * time.Millisecond,
		MaxConcurrentOps: 3, MaxQueuedOps: 2,
		MemoryBudget: memoryBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	gen := workload.New(7)
	root, err := s.Append(gen.PurchaseOrdersDoc(300))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	maxSeedID := s.Stats().Nodes // ids 1..Nodes are live after the bulk load

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	frags := make([][]core.Token, 8)
	for i := range frags {
		frag, err := axml.ParseFragment(fmt.Sprintf(`<chaos-order n="%d"><item>x</item></chaos-order>`, i))
		if err != nil {
			t.Fatal(err)
		}
		frags[i] = frag
	}

	var (
		wg        sync.WaitGroup
		stop      = make(chan struct{})
		badErr    atomic.Pointer[string]
		opsDone   atomic.Uint64
		errsTyped atomic.Uint64
	)
	report := func(who string, err error) {
		if err == nil {
			opsDone.Add(1)
			return
		}
		if allowedChaosErr(err) {
			errsTyped.Add(1)
			if errors.Is(err, axml.ErrOverloaded) {
				// What a well-behaved client does with a shed: back off.
				time.Sleep(200 * time.Microsecond)
			}
			return
		}
		msg := fmt.Sprintf("%s: untyped error under chaos: %v", who, err)
		badErr.CompareAndSwap(nil, &msg)
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// Readers: random point reads and subtree scans across the seed ids.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stopped() {
				id := core.NodeID(1 + rng.Uint64()%maxSeedID)
				switch rng.Intn(3) {
				case 0:
					_, err := s.ReadNode(id)
					report("reader", err)
				case 1:
					err := s.ScanNode(id, func(core.Item) bool { return true })
					report("reader", err)
				default:
					_, _, err := s.NextSibling(id)
					report("reader", err)
				}
			}
		}(int64(100 + r))
	}

	// Query workers: streaming XPath/XQuery over the whole store while the
	// writers mutate it and the injector drags the disk. Pushdown scans,
	// union fallbacks and FLWOR all run under a per-query deadline, so the
	// executor's cancellation checks and the plan cache's concurrency both
	// get hammered; any untyped error (or a wrong panic) fails the soak.
	queryExprs := []string{
		`//purchase-order/line/item`,
		`//line[@no='1'][1]`,
		`//purchase-order[@status='open']/customer | //purchase-order[@status='billed']/date`,
	}
	for qw := 0; qw < 2; qw++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stopped() {
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				switch rng.Intn(4) {
				case 0:
					_, err := xquery.EvalStoreCtx(ctx, s,
						`for $l in //line[@no='1'] where $l/qty > 50 return <hot>{$l/item}</hot>`)
					report("query-flwor", err)
				case 1:
					_, err := xpath.QueryExistsCtx(ctx, s, queryExprs[rng.Intn(len(queryExprs))])
					report("query-exists", err)
				default:
					_, err := xpath.QueryIDsCtx(ctx, s, queryExprs[rng.Intn(len(queryExprs))])
					report("query-ids", err)
				}
				cancel()
			}
		}(int64(400 + qw))
	}

	// Writers: append under the root, occasionally deleting what they
	// added. Each writer deletes only its own inserts, so ErrNoSuchNode
	// here would be a real bug — but a timed-out insert legitimately
	// leaves nothing to delete, which is why deletes pop before insert
	// errors are known and the classifier stays strict.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []core.NodeID
			for !stopped() {
				if len(mine) > 8 {
					id := mine[0]
					mine = mine[1:]
					report("writer-delete", s.DeleteNode(id))
					continue
				}
				id, err := s.InsertIntoLast(root, frags[rng.Intn(len(frags))])
				report("writer-insert", err)
				if err == nil {
					mine = append(mine, id)
				}
			}
		}(int64(200 + w))
	}

	// Batch workers: read/insert/delete batches under a tight per-batch
	// deadline — these exercise commits through the faulty WAL and aborts
	// (a deadline or a shed mid-batch, a failed commit) that reload the
	// store beside readers and plain writers.
	var batchesDone atomic.Uint64
	for x := 0; x < 2; x++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stopped() {
				ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
				err := s.Update(ctx, func(b *axml.Batch) error {
					if _, err := b.ReadNode(core.NodeID(1 + rng.Uint64()%maxSeedID)); err != nil {
						return err
					}
					id, err := b.InsertIntoLast(root, frags[rng.Intn(len(frags))])
					if err != nil {
						return err
					}
					return b.DeleteNode(id)
				})
				cancel()
				if err == nil {
					batchesDone.Add(1)
				}
				report("batch", err)
			}
		}(int64(300 + x))
	}

	// Flusher: periodic commits push batches through the (faulty) WAL.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			time.Sleep(20 * time.Millisecond)
			report("flusher", s.Flush())
		}
	}()

	// Chaos controller: alternate slow-disk windows with full-disk
	// episodes; after each ENOSPC-induced degrade, free space and repair
	// in place, exactly as an operator (or supervisor) would.
	soakEnd := time.Now().Add(duration)
	for phase := 0; time.Now().Before(soakEnd); phase++ {
		if msg := badErr.Load(); msg != nil {
			break
		}
		switch phase % 3 {
		case 0: // slow disk
			inj.ArmLatency(time.Millisecond)
			time.Sleep(duration / 8)
			inj.DisarmLatency()
		case 1: // healthy interval
			time.Sleep(duration / 12)
		default: // disk fills; the next commit degrades the store
			inj.ArmDiskFull(3)
			waitDegrade := time.Now().Add(2 * time.Second)
			for {
				if ro, _ := s.ReadOnly(); ro || time.Now().After(waitDegrade) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			inj.FreeSpace()
			if ro, _ := s.ReadOnly(); ro {
				if _, err := s.Repair(true); err != nil {
					t.Errorf("repair after injected ENOSPC: %v", err)
					soakEnd = time.Now()
				}
			}
		}
	}
	close(stop)

	// No deadlock: every worker must drain promptly once asked to stop.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(time.Minute):
		t.Fatal("soak workers did not drain: deadlock")
	}
	if msg := badErr.Load(); msg != nil {
		t.Fatal(*msg)
	}
	if opsDone.Load() == 0 {
		t.Fatal("no operation succeeded during the soak")
	}
	adm := s.Stats().Admission
	t.Logf("soak: %d ops succeeded (%d batches, %.0f/s), %d typed errors, admission %+v",
		opsDone.Load(), batchesDone.Load(), float64(batchesDone.Load())/duration.Seconds(), errsTyped.Load(), adm)
	if adm.Queued == 0 || adm.Shed == 0 {
		t.Errorf("soak never saturated the admission gate (%+v); overload path untested", adm)
	}

	// Bounded memory: the acceleration structures answer to MemoryBudget,
	// so the heap must settle near the post-load baseline. The slack
	// absorbs allocator fragmentation and -race bookkeeping; what it must
	// never absorb is an unbounded cache.
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	slack := uint64(32 << 20)
	if limit := base.HeapAlloc + uint64(memoryBudget) + slack; after.HeapAlloc > limit {
		t.Errorf("heap grew unboundedly: %d -> %d bytes (budget %d, slack %d)",
			base.HeapAlloc, after.HeapAlloc, memoryBudget, slack)
	}

	// Aftermath: free space, lift any latch, and the store must verify
	// clean — chaos may shed work, it may never corrupt.
	inj.FreeSpace()
	inj.DisarmLatency()
	if ro, _ := s.ReadOnly(); ro {
		if _, err := s.Repair(true); err != nil {
			t.Fatalf("final repair: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("verify after soak: %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after soak: %v", err)
	}
}

// TestAdmissionOverhead measures what the admission gate costs an
// uncontended single reader: the same warm point-read workload against an
// identical store with the gate disabled. The <5% bound is asserted on
// nightly runs (quiet machines); interactive and presubmit runs log the
// ratio without failing, because a loaded laptop can dwarf the effect
// being measured.
func TestAdmissionOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	const trials = 5
	ops := 20000
	if nightly() {
		ops = 100000
	}

	build := func(maxOps int) *core.Store {
		s, err := core.Open(core.Config{Mode: core.RangePartial, MaxConcurrentOps: maxOps})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if _, err := s.Append(workload.New(3).PurchaseOrdersDoc(200)); err != nil {
			t.Fatal(err)
		}
		return s
	}
	gated, ungated := build(0), build(-1) // 0 = default gate of 128 slots
	nodes := gated.Stats().Nodes

	measure := func(s *core.Store) time.Duration {
		// Warm the partial index so every timed read is the cheap path —
		// the one where fixed per-op overhead shows up the most.
		for id := core.NodeID(1); id <= core.NodeID(nodes); id++ {
			if _, err := s.ReadNode(id); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		for i := 0; i < ops; i++ {
			id := core.NodeID(1 + i%int(nodes))
			if _, err := s.ReadNode(id); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}

	gatedTimes := make([]time.Duration, 0, trials)
	ungatedTimes := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ { // interleave trials to share machine noise
		ungatedTimes = append(ungatedTimes, measure(ungated))
		gatedTimes = append(gatedTimes, measure(gated))
	}
	median := func(ds []time.Duration) time.Duration {
		for i := 1; i < len(ds); i++ { // insertion sort; n is tiny
			for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
				ds[j], ds[j-1] = ds[j-1], ds[j]
			}
		}
		return ds[len(ds)/2]
	}
	g, u := median(gatedTimes), median(ungatedTimes)
	overhead := float64(g-u) / float64(u)
	t.Logf("admission overhead: gated %v vs ungated %v for %d ops = %+.2f%%",
		g, u, ops, overhead*100)
	if nightly() && overhead > 0.05 {
		t.Errorf("admission gate costs %.2f%% on the uncontended read path, want < 5%%", overhead*100)
	}
}
