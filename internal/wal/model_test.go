package wal

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/pagestore"
)

// The WAL reference model. A script of journal operations — Allocate,
// WritePage, Free, Stage, Sync, Commit, Checkpoint, DiscardPending, the
// beginning and the finish of an overlapped checkpoint, crash and reopen —
// runs against a real Pager and against a model that keeps nothing but page
// images: the acknowledged state, the staged batches not yet acknowledged,
// and the writes not yet staged. Every read must see the model's newest
// image. After every crash, OpenReadOnly, recovery and ParseLog over the
// page file must each produce the acknowledged state plus a prefix of the
// unacknowledged batches — the same prefix on every page, never a hybrid —
// and agree with each other. With an archive, a base copied at a checkpoint
// and rolled forward through the archived segments must reproduce the page
// file.
//
// An overlapped checkpoint is begun by an explicit Checkpoint on a goroutine
// that the page file's fsync holds: its snapshot, its log fsync and its page
// writes are done, its page fsync, start record and finish are not. Commits,
// frees and reads go on meanwhile, and its finish releases it. A checkpoint
// a Sync starts on its own is waited for before the next operation, so the
// script stays deterministic.
//
// A crash is CloseWithoutCommit on its own, a crash armed at a random I/O
// boundary of a commit (the first is the log append, which tears) and of
// the checkpoint it or an overlapped one runs, or one armed inside an
// explicit checkpoint or the rest of an overlapped one. A torn page-file
// write leaves the
// part of the page past its torn prefix indeterminate — seeded garbage, not
// the old bytes — which only a full image in the log can repair. A log
// write reaches the disk only through a log fsync: at a crash, each write
// since the last one independently survives or is lost, and where one is
// lost the bytes of an earlier lap of the log show through.

const modelPageSize = 512

// modelGeometry sizes one model run.
type modelGeometry struct {
	filePages int  // zero pages the page file starts with: sizes the checkpoint threshold
	archive   bool // archive segments, and check a rolled-forward base at the end
}

// modelGeometryOf derives a run's geometry from its seed: eager (every
// commit checkpoints) or lazy (batches pile up in the log), with or without
// an archive.
func modelGeometryOf(seed int64) modelGeometry {
	g := modelGeometry{archive: seed&2 != 0}
	if seed&1 != 0 {
		g.filePages = 1024 // 512 KiB: the log may grow to 16 KiB before a checkpoint
	}
	return g
}

type pageMap = map[pagestore.PageID][]byte

// modelBase is a page-file copy taken at a checkpoint: the roll-forward base.
type modelBase struct {
	lsn uint64
	img []byte
}

// walModel drives one Pager and checks it against the model.
type walModel struct {
	t       testing.TB
	rng     *rand.Rand
	g       modelGeometry
	path    string
	archive string

	p   *Pager
	inj *fault.Injector
	log *cacheLog

	durable   pageMap   // acknowledged: Sync, Commit or Checkpoint returned nil
	tail      []pageMap // staged, not yet acknowledged, oldest first
	pending   pageMap   // written since the last Stage
	freed     map[pagestore.PageID]bool
	fresh     map[pagestore.PageID]bool // allocated since the last Stage
	released  map[pagestore.PageID]bool // freed ids the allocator may hand out again
	known     map[pagestore.PageID]bool // every id this model has seen
	live      []pagestore.PageID        // allocated and not freed: what ops pick from
	lastLSN   uint64
	base      *modelBase
	gate      *fsyncGate
	held      *overlap // the overlapped checkpoint, while one is begun and not finished
	crashes   [3]int   // by kind: plain, inside a commit, inside a checkpoint
	recovered int      // crashes after which some staged batch was unacknowledged
	deltas    int      // delta records the roll-forward applied
	replayed  int      // delta records in logs left behind by a crash
	lost      int      // crashes that lost a log write
	stale     int      // crashes that left a whole record of an earlier lap at the tail
	overlaps  int      // overlapped checkpoints begun with a commit staged while they were held
	wraps     int      // batches written at ringBase behind a live upper part
}

// overlap is a begun checkpoint: what Checkpoint returned, once it has, and
// the frees its snapshot covers.
type overlap struct {
	done    chan error
	frees   []pagestore.PageID
	commits int // batches staged while it was held
}

// cacheLog sits under the fault injector and plays the page cache: a log
// write is on disk only once a log fsync has followed it, and until then
// each of its sectors may or may not get there.
type cacheLog struct {
	File
	disk   []byte        // the log as of its last fsync
	writes []cachedWrite // since then, in order
}

type cachedWrite struct {
	off  int64
	data []byte
}

func (f *cacheLog) WriteAt(p []byte, off int64) (int, error) {
	f.writes = append(f.writes, cachedWrite{off, bytes.Clone(p)})
	return f.File.WriteAt(p, off)
}

func (f *cacheLog) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.disk, f.writes = f.settled(func() bool { return true }), nil
	return nil
}

func (f *cacheLog) Truncate(size int64) error {
	f.disk, f.writes = f.settled(func() bool { return true })[:size], nil
	return f.File.Truncate(size)
}

// sector is the unit a write reaches the disk in.
const sector = 512

// settled is the disk with the sectors of the cached writes keep picks.
func (f *cacheLog) settled(keep func() bool) []byte {
	img := bytes.Clone(f.disk)
	for _, w := range f.writes {
		for off, end := int(w.off), int(w.off)+len(w.data); off < end; {
			next := min(end, (off/sector+1)*sector)
			if keep() {
				if grow := next - len(img); grow > 0 {
					img = append(img, make([]byte, grow)...)
				}
				copy(img[off:next], w.data[off-int(w.off):])
			}
			off = next
		}
	}
	return img
}

// scribblePager sits under the fault injector: once the injector has
// crashed, the one write still reaching the page file is the torn one, and
// everything past a seeded cut of it becomes garbage.
type scribblePager struct {
	InnerPager
	inj *fault.Injector
	rng *rand.Rand
}

func newWALModel(t testing.TB, seed int64) *walModel {
	t.Helper()
	dir := t.TempDir()
	m := &walModel{
		t:        t,
		rng:      rand.New(rand.NewSource(seed)),
		g:        modelGeometryOf(seed),
		path:     filepath.Join(dir, "pages.db"),
		durable:  pageMap{},
		known:    map[pagestore.PageID]bool{},
		released: map[pagestore.PageID]bool{},
		gate:     newFsyncGate(),
	}
	if m.g.archive {
		m.archive = filepath.Join(dir, "segments")
	}
	if m.g.filePages > 0 {
		if err := os.WriteFile(m.path, make([]byte, m.g.filePages*modelPageSize), 0o644); err != nil {
			t.Fatal(err)
		}
		for id := pagestore.PageID(1); int(id) < m.g.filePages; id++ {
			m.known[id] = true // filler: sizes the file, never touched
		}
	}
	m.open()
	return m
}

// open opens the pager (running recovery) behind a fresh injector and
// resets the model's per-session state.
func (m *walModel) open() {
	m.t.Helper()
	m.inj = fault.NewInjector(fault.Config{Seed: m.rng.Int63(), TornWrite: true})
	scribble := rand.New(rand.NewSource(m.rng.Int63()))
	p, err := OpenWithOptions(m.path, modelPageSize, Options{
		ArchiveDir: m.archive,
		WrapPager: func(ip InnerPager) InnerPager {
			return gatedPager{fault.NewPager(m.inj, scribblePager{ip, m.inj, scribble}), m.gate}
		},
		WrapLog: func(f File) File {
			m.log = &cacheLog{File: f}
			return fault.NewFile(m.inj, m.log)
		},
		Retries: -1,
	})
	if err != nil {
		m.t.Fatalf("open: %v", err)
	}
	m.p = p
	m.tail, m.pending = nil, pageMap{}
	m.freed = map[pagestore.PageID]bool{}
	m.fresh = map[pagestore.PageID]bool{}
	clear(m.released) // the page file's free list does not survive a reopen
	m.live = sortedIDs(m.durable)
	m.lastLSN = p.LSN()
}

// view is the image a read must return: pending, then the newest staged
// batch, then the acknowledged state, else the allocator's zero page.
func (m *walModel) view(id pagestore.PageID) []byte {
	if img, ok := m.pending[id]; ok {
		return img
	}
	for i := len(m.tail) - 1; i >= 0; i-- {
		if img, ok := m.tail[i][id]; ok {
			return img
		}
	}
	if img, ok := m.durable[id]; ok {
		return img
	}
	return make([]byte, modelPageSize)
}

func (m *walModel) pick() (pagestore.PageID, bool) {
	if len(m.live) == 0 {
		return 0, false
	}
	return m.live[m.rng.Intn(len(m.live))], true
}

func (m *walModel) dropLive(id pagestore.PageID) {
	m.live = slices.DeleteFunc(m.live, func(x pagestore.PageID) bool { return x == id })
}

// staged reports whether id holds an image in any state a crash could
// recover.
func (m *walModel) staged(id pagestore.PageID) bool {
	if _, ok := m.durable[id]; ok {
		return true
	}
	for _, b := range m.tail {
		if _, ok := b[id]; ok {
			return true
		}
	}
	return false
}

func (m *walModel) allocate() (pagestore.PageID, bool) {
	m.t.Helper()
	if len(m.live) >= 12 {
		return 0, false
	}
	id, err := m.p.Allocate()
	if err != nil {
		m.t.Fatalf("allocate: %v", err)
	}
	if m.known[id] && !m.released[id] {
		m.t.Fatalf("allocate handed out page %d, which was never released", id)
	}
	if _, ok := m.pending[id]; ok || m.staged(id) || m.freed[id] {
		m.t.Fatalf("allocate handed out page %d while a recoverable state still holds it", id)
	}
	delete(m.released, id)
	m.known[id] = true
	m.fresh[id] = true
	m.live = append(m.live, id)
	return id, true
}

// nextImage edits id's current image: a tiny edit, scattered edits, a
// whole-page rewrite, or a slot-style insert that shifts the tail.
func (m *walModel) nextImage(id pagestore.PageID) []byte {
	img := bytes.Clone(m.view(id))
	switch m.rng.Intn(4) {
	case 0:
		off := m.rng.Intn(modelPageSize - 4)
		m.rng.Read(img[off : off+1+m.rng.Intn(4)])
	case 1:
		for n := 2 + m.rng.Intn(6); n > 0; n-- {
			off := m.rng.Intn(modelPageSize - 16)
			m.rng.Read(img[off : off+1+m.rng.Intn(16)])
		}
	case 2:
		m.rng.Read(img)
	case 3:
		off, n := m.rng.Intn(modelPageSize/2), 1+m.rng.Intn(64)
		copy(img[off+n:], img[off:])
		m.rng.Read(img[off : off+n])
	}
	return img
}

func (m *walModel) write(id pagestore.PageID) {
	m.t.Helper()
	img := m.nextImage(id)
	if err := m.p.WritePage(id, img); err != nil {
		m.t.Fatalf("write page %d: %v", id, err)
	}
	m.pending[id] = img
}

func (m *walModel) free() {
	m.t.Helper()
	id, ok := m.pick()
	if !ok {
		return
	}
	if err := m.p.Free(id); err != nil {
		m.t.Fatalf("free page %d: %v", id, err)
	}
	delete(m.pending, id)
	m.dropLive(id)
	if m.fresh[id] {
		delete(m.fresh, id)
		m.released[id] = true
		return
	}
	m.freed[id] = false
}

// stageModel mirrors a successful Stage.
func (m *walModel) stageModel() {
	if len(m.pending) > 0 {
		m.tail = append(m.tail, m.pending)
		m.pending = pageMap{}
		if m.held != nil {
			m.held.commits++
		}
	}
	for id := range m.freed {
		m.freed[id] = true
	}
	clear(m.fresh)
}

// ackModel mirrors a Sync covering every staged batch.
func (m *walModel) ackModel() {
	for _, b := range m.tail {
		maps.Copy(m.durable, b)
	}
	m.tail = nil
}

// stagedFrees lists the frees a checkpoint begun now would release.
func (m *walModel) stagedFrees() []pagestore.PageID {
	var ids []pagestore.PageID
	for id, staged := range m.freed {
		if staged {
			ids = append(ids, id)
		}
	}
	return ids
}

// releaseModel mirrors a checkpoint releasing the frees its snapshot covers.
func (m *walModel) releaseModel(ids []pagestore.PageID) {
	for _, id := range ids {
		delete(m.freed, id)
		delete(m.durable, id)
		m.released[id] = true
	}
}

// checkpointModel mirrors a checkpoint over everything staged: every batch
// is acknowledged and every staged free released.
func (m *walModel) checkpointModel() {
	m.ackModel()
	m.releaseModel(m.stagedFrees())
}

// checkpoints is the pager's count of completed checkpoints.
func (m *walModel) checkpoints() uint64 {
	_, _, n, _, _, _, _, _ := m.p.JournalStats()
	return n
}

// fits reports whether the pending pages, even logged as full images, find
// room in the ring as it stands. While a held checkpoint runs, a Stage that
// might wait for it must not start: the hold would never end.
func (m *walModel) fits() bool {
	n := int64(recHeader+8+4) + int64(len(m.pending))*(recHeader+modelPageSize+4)
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	_, ok := m.p.place(n)
	return ok
}

func (m *walModel) stage() {
	m.t.Helper()
	if m.held != nil && !m.fits() {
		m.finishHeld()
	}
	before := m.checkpoints()
	lsn, err := m.p.Stage()
	if err != nil {
		m.t.Fatalf("stage: %v", err)
	}
	if m.checkpoints() != before {
		m.checkpointModel() // the ring was full: Stage waited for a checkpoint over the batches before it
	}
	want := m.lastLSN
	if len(m.pending) > 0 {
		want++
	}
	if lsn != want {
		m.t.Fatalf("stage returned LSN %d, want %d", lsn, want)
	}
	m.lastLSN = lsn
	m.stageModel()
}

func (m *walModel) sync() {
	m.t.Helper()
	before := m.checkpoints()
	if err := m.p.Sync(m.lastLSN); err != nil {
		m.t.Fatalf("sync %d: %v", m.lastLSN, err)
	}
	if m.p.LSN() < m.lastLSN {
		m.t.Fatalf("Sync(%d) returned with LSN %d acknowledged", m.lastLSN, m.p.LSN())
	}
	m.ackModel()
	if m.held == nil {
		m.p.waitCheckpoint()
		if m.checkpoints() != before {
			m.checkpointModel() // the due checkpoint ran
		}
	}
}

func (m *walModel) checkpoint() {
	m.t.Helper()
	if m.held != nil {
		m.finishHeld()
	}
	if err := m.p.Checkpoint(); err != nil {
		m.t.Fatalf("checkpoint: %v", err)
	}
	m.checkpointModel()
	if m.archive != "" && m.base == nil && m.rng.Intn(3) == 0 {
		img, err := os.ReadFile(m.path)
		if err != nil {
			m.t.Fatal(err)
		}
		m.base = &modelBase{lsn: m.p.LSN(), img: img}
	}
}

// beginHeld begins an overlapped checkpoint: an explicit Checkpoint on a
// goroutine of its own, held at the page file's fsync. By then it has made
// every staged batch durable.
func (m *walModel) beginHeld() {
	m.t.Helper()
	if m.held != nil {
		return
	}
	g := m.gate
	g.armed.Store(true)
	h := &overlap{done: make(chan error, 1), frees: m.stagedFrees()}
	go func() { h.done <- m.p.Checkpoint() }()
	select {
	case <-g.reached:
		m.ackModel()
		m.held = h
	case err := <-h.done: // nothing live: it only released the staged frees
		g.armed.Store(false)
		if err != nil {
			m.t.Fatalf("checkpoint: %v", err)
		}
		m.checkpointModel()
	}
}

// endHeld releases the held checkpoint and mirrors it when it succeeds: its
// start-record fsync acknowledges whatever was staged meanwhile, and it
// releases the frees its snapshot covered.
func (m *walModel) endHeld() error {
	h := m.held
	m.held = nil
	m.gate.release <- struct{}{}
	err := <-h.done
	if err == nil {
		m.ackModel()
		m.releaseModel(h.frees)
	}
	if h.commits > 0 {
		m.overlaps++
	}
	return err
}

// finishHeld ends the held checkpoint where no crash is armed.
func (m *walModel) finishHeld() {
	m.t.Helper()
	if err := m.endHeld(); err != nil {
		m.t.Fatalf("held checkpoint: %v", err)
	}
}

func (m *walModel) discard() {
	m.p.DiscardPending()
	m.pending = pageMap{}
	for id, staged := range m.freed {
		if !staged {
			delete(m.freed, id)
			m.live = append(m.live, id)
		}
	}
}

// readAll checks every page the model knows of against the pager.
func (m *walModel) readAll() {
	m.t.Helper()
	buf := make([]byte, modelPageSize)
	for _, id := range m.live {
		if err := m.p.ReadPage(id, buf); err != nil {
			m.t.Fatalf("read page %d: %v", id, err)
		}
		if !bytes.Equal(buf, m.view(id)) {
			m.t.Fatalf("read page %d: not the newest image the model holds", id)
		}
	}
	for id := range m.freed {
		if err := m.p.ReadPage(id, buf); !errors.Is(err, pagestore.ErrFreedPage) {
			m.t.Fatalf("read of freed page %d: %v, want ErrFreedPage", id, err)
		}
	}
}

// states returns the acknowledged state followed by that state after each
// unacknowledged batch in turn: everything a crash may legally recover.
func (m *walModel) states() []pageMap {
	s := maps.Clone(m.durable)
	out := []pageMap{s}
	for _, b := range m.tail {
		s = maps.Clone(s)
		maps.Copy(s, b)
		out = append(out, s)
	}
	return out
}

// matching returns the states read agrees with on every page they hold.
func matching(states []pageMap, read func(pagestore.PageID, []byte) error) []int {
	buf := make([]byte, modelPageSize)
	var out []int
	for k, s := range states {
		ok := true
		for id, img := range s {
			if read(id, buf) != nil || !bytes.Equal(buf, img) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, k)
		}
	}
	return out
}

// crash ends the session: plainly, at a random I/O boundary of a commit and
// the checkpoint after it, or at one inside an explicit checkpoint. With a
// checkpoint held, a commit's crash may land in the commit or in the rest of
// the checkpoint, released after it, and an explicit one's in that rest; a
// plain crash finishes it first. Then the files at rest are checked through
// OpenReadOnly and ParseLog, recovery runs, and the recovered pager is
// checked.
func (m *walModel) crash(kind int) {
	m.t.Helper()
	m.crashes[kind]++
	switch kind {
	case 0:
		if m.held != nil {
			m.finishHeld()
		}
		switch m.rng.Intn(3) {
		case 0:
			m.lapStart()
		case 1:
			m.wrapStart()
		}
	case 1:
		at := 1 + m.rng.Intn(4+len(m.p.overlay))
		switch {
		case m.held != nil: // the commit's log write and fsync, the checkpoint's page fsync, start record and its fsync
			at = 1 + m.rng.Intn(5)
		case m.rng.Intn(2) == 0: // crash at the commit's log write or fsync
			m.lapStart()
			at = 1 + m.rng.Intn(2)
		}
		if len(m.pending) == 0 {
			if id, ok := m.pick(); ok {
				m.write(id)
			}
		}
		if m.held != nil && !m.fits() {
			m.finishHeld()
		}
		m.inj.ArmCrash(at)
		before := m.checkpoints()
		lsn, err := m.p.Stage()
		if m.checkpoints() != before {
			m.checkpointModel() // the ring was full: Stage waited for a checkpoint over the batches before it
		}
		if err == nil { // the batch reached the log before the crash
			m.lastLSN = lsn
			m.stageModel()
			before = m.checkpoints()
			if err = m.p.Sync(lsn); err == nil {
				m.ackModel()
			}
		}
		if m.held != nil {
			_ = m.endHeld()
		} else if m.p.waitCheckpoint(); err == nil && m.checkpoints() != before {
			m.checkpointModel() // acknowledged, and the due checkpoint did not crash
		}
	case 2:
		if m.held != nil {
			m.inj.ArmCrash(1 + m.rng.Intn(3))
			_ = m.endHeld()
			break
		}
		m.inj.ArmCrash(1 + m.rng.Intn(4+len(m.p.overlay)))
		if err := m.p.Checkpoint(); err == nil {
			m.checkpointModel()
		}
	}
	if err := m.p.CloseWithoutCommit(); err != nil {
		m.t.Fatalf("crash: %v", err)
	}
	states := m.states()
	lost := false
	log := m.log.settled(func() bool {
		keep := m.rng.Intn(2) == 0
		lost = lost || !keep
		return keep
	})
	if lost {
		m.lost++
	}
	if err := os.WriteFile(m.path+".wal", log, 0o644); err != nil {
		m.t.Fatal(err)
	}
	tail := -1 // where replay stops: past the last batch it applies
	parsed, _, err := replayLog(log, modelPageSize, func(batch []byte, _ []PageImage, _ uint64) error {
		for pos := 0; pos < len(batch); {
			typ, _, _, next, _ := readRecord(batch, pos)
			if typ == recDelta {
				m.replayed++
			}
			pos = next
		}
		at := cap(log) - cap(batch) // batch is log[at:at+len(batch)]
		if at == ringBase && tail > ringBase {
			m.wraps++
		}
		tail = at + len(batch)
		return nil
	})
	if err != nil {
		m.t.Fatalf("crash kind %d left a log replay rejects: %v", kind, err)
	}
	if tail < 0 {
		tail, _, _, _ = logStart(log)
	}
	if _, _, _, _, ok := readRecord(log, tail); ok {
		m.stale++
	}
	file, err := os.ReadFile(m.path)
	if err != nil {
		m.t.Fatal(err)
	}
	parseOK := matching(states, func(id pagestore.PageID, buf []byte) error {
		clear(buf)
		if img, ok := parsed[id]; ok {
			copy(buf, img)
		} else if off := int(id) * modelPageSize; off < len(file) {
			copy(buf, file[off:])
		}
		return nil
	})
	ro, err := OpenReadOnly(m.path, modelPageSize)
	if err != nil {
		m.t.Fatalf("read-only open after a crash: %v", err)
	}
	roOK := matching(states, ro.ReadPage)
	ro.Close()
	m.open()
	recOK := matching(states, m.p.ReadPage)
	if len(roOK) == 0 || len(recOK) == 0 || len(parseOK) == 0 {
		m.t.Fatalf("crash kind %d: read-only view matches states %v, ParseLog %v, recovery %v, of %d (acked + %d staged)",
			kind, roOK, parseOK, recOK, len(states), len(states)-1)
	}
	k := -1
	for _, i := range recOK {
		if slices.Contains(roOK, i) && slices.Contains(parseOK, i) {
			k = i
		}
	}
	if k < 0 {
		m.t.Fatalf("crash kind %d: read-only view (states %v), ParseLog (states %v) and recovery (states %v) disagree", kind, roOK, parseOK, recOK)
	}
	if len(states) > 1 {
		m.recovered++
	}
	m.durable = states[k]
	m.live = sortedIDs(m.durable)
	m.tail = nil
}

// lapStart sets up the crash the start record exists for. It commits a lap
// of three batches that each rewrite one page whole, so that the lap's
// first batch replayed alone would roll the page back; checkpoints,
// rewinding the ring over that lap; and stages a batch of up to three pages
// it does not sync, so the crash that follows may lose the sectors of that
// batch lying over the lap's first.
func (m *walModel) lapStart() {
	m.t.Helper()
	m.checkpoint()
	if id, ok := m.pick(); ok {
		for n := 3; n > 0; n-- {
			img := make([]byte, modelPageSize)
			m.rng.Read(img)
			if err := m.p.WritePage(id, img); err != nil {
				m.t.Fatalf("write page %d: %v", id, err)
			}
			m.pending[id] = img
			m.stage()
			m.sync()
		}
	}
	m.checkpoint()
	for n := 3; n > 0; n-- {
		if id, ok := m.pick(); ok {
			m.write(id)
		}
	}
	m.stage()
}

// wrapStart sets up a crash across the ring's wrap. Commits fill the log to
// most of its share; a held checkpoint then snapshots it with a commit
// staged while it is held, which stays live behind the new start; and
// commits go on until the tail has wrapped to ringBase behind that batch, so
// replay must jump. A store whose checkpoint is due at every commit has
// nothing live to wrap behind.
func (m *walModel) wrapStart() {
	m.t.Helper()
	if m.g.filePages == 0 {
		return
	}
	ring := func() (live, share int64, wrapped bool) {
		m.p.mu.RLock()
		defer m.p.mu.RUnlock()
		return m.p.liveBytes(), m.p.logShare(), m.p.wrapEnd != 0
	}
	commit := func() {
		if id, ok := m.pick(); ok {
			m.write(id)
		}
		m.stage()
		m.sync()
	}
	for n := 0; n < 100; n++ {
		if live, share, _ := ring(); live > share*3/4 {
			break
		}
		commit()
	}
	m.beginHeld()
	commit()
	if m.held != nil {
		m.finishHeld()
	}
	for n := 0; n < 100; n++ {
		if _, _, wrapped := ring(); wrapped {
			break
		}
		commit()
	}
}

// step runs the operation op names. Its low four bits pick it; the rarer
// operations (allocate alone, free, beginning and finishing a held
// checkpoint, checkpoint, discard, crash) run only when the next two bits
// are zero as well, so that pages see several commits between checkpoints
// and the log holds deltas.
func (m *walModel) step(op byte) {
	rare := op/16%4 == 0
	switch op % 16 {
	case 0, 1, 2, 3, 4, 5, 6:
		if id, ok := m.pick(); ok {
			m.write(id)
		} else if id, ok := m.allocate(); ok {
			m.write(id)
		}
	case 7:
		if id, ok := m.allocate(); ok {
			m.write(id)
		}
	case 8:
		if rare {
			m.allocate()
		} else {
			m.stage()
		}
	case 9:
		if rare {
			m.free()
		} else {
			m.sync()
		}
	case 10, 11, 12:
		switch {
		case rare && op%16 == 10:
			m.beginHeld()
		case rare && op%16 == 11:
			if m.held != nil {
				m.finishHeld()
			}
		case rare:
			m.checkpoint()
		default:
			m.stage()
			m.sync()
		}
	case 13:
		if rare {
			m.discard()
		} else if id, ok := m.pick(); ok {
			m.write(id)
		}
	case 14:
		m.readAll()
	case 15:
		if rare {
			m.crash(int(op / 64 % 3))
		} else {
			m.readAll()
		}
	}
}

// finish closes the pager cleanly and checks the page file, and the
// rolled-forward base, against the acknowledged state.
func (m *walModel) finish() {
	m.t.Helper()
	if m.held != nil {
		m.finishHeld()
	}
	if err := m.p.Close(); err != nil {
		m.t.Fatalf("close: %v", err)
	}
	m.stageModel()
	m.checkpointModel()
	file, err := os.ReadFile(m.path)
	if err != nil {
		m.t.Fatal(err)
	}
	check := func(what string, img []byte) {
		for id, want := range m.durable {
			off := int(id) * modelPageSize
			if off+modelPageSize > len(img) || !bytes.Equal(img[off:off+modelPageSize], want) {
				m.t.Fatalf("%s: page %d is not the acknowledged image", what, id)
			}
		}
	}
	check("page file after close", file)
	if m.base == nil {
		return
	}
	img := m.base.img
	head, err := MaxArchivedLSN(m.archive)
	if err != nil {
		m.t.Fatal(err)
	}
	prev := func(id pagestore.PageID, buf []byte) error {
		m.deltas++
		clear(buf)
		if off := int(id) * modelPageSize; off < len(img) {
			copy(buf, img[off:])
		}
		return nil
	}
	for lsn := m.base.lsn + 1; lsn <= head; lsn++ {
		pages, segLSN, err := ReadSegment(filepath.Join(m.archive, SegmentFileName(lsn)), modelPageSize, prev)
		if err != nil || segLSN != lsn {
			m.t.Fatalf("roll forward from LSN %d: segment %d: LSN %d, %v", m.base.lsn, lsn, segLSN, err)
		}
		for _, pg := range pages {
			off := int(pg.ID) * modelPageSize
			if grow := off + modelPageSize - len(img); grow > 0 {
				img = append(img, make([]byte, grow)...)
			}
			copy(img[off:], pg.Data)
		}
	}
	check("base rolled forward through the archive", img)
}

// runWALModel runs one script against a fresh store.
func runWALModel(t testing.TB, seed int64, script []byte) *walModel {
	t.Helper()
	m := newWALModel(t, seed)
	for _, op := range script {
		m.step(op)
	}
	m.finish()
	return m
}

// TestWALModel runs seeded scripts over all four geometries.
func TestWALModel(t *testing.T) {
	seeds := 48
	if testing.Short() {
		seeds = 12
	}
	var crashes [3]int
	recovered, deltas, replayed, lost, stale, overlaps, wraps := 0, 0, 0, 0, 0, 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 200)
		rng.Read(script)
		m := runWALModel(t, seed, script)
		for i, n := range m.crashes {
			crashes[i] += n
		}
		recovered += m.recovered
		deltas += m.deltas
		replayed += m.replayed
		lost += m.lost
		stale += m.stale
		overlaps += m.overlaps
		wraps += m.wraps
	}
	t.Logf("crashes: %d plain, %d in a commit, %d in a checkpoint; %d with unacknowledged batches; %d deltas recovered, %d rolled forward; %d lost a log write, %d left an earlier lap's record at the tail; %d held checkpoints overlapped commits; %d recoveries crossed the ring's wrap",
		crashes[0], crashes[1], crashes[2], recovered, replayed, deltas, lost, stale, overlaps, wraps)
	if crashes[0] == 0 || crashes[1] == 0 || crashes[2] == 0 || recovered == 0 {
		t.Fatal("the scripts did not reach every kind of crash")
	}
	if deltas == 0 || replayed == 0 {
		t.Fatalf("%d deltas recovered, %d rolled forward: the model must reach both", replayed, deltas)
	}
	if lost == 0 || stale == 0 {
		t.Fatalf("%d crashes lost a log write, %d left a record of an earlier lap at the tail: the model must reach both", lost, stale)
	}
	if overlaps == 0 || wraps == 0 {
		t.Fatalf("%d held checkpoints overlapped commits, %d recoveries crossed the wrap: the model must reach both", overlaps, wraps)
	}
}

// FuzzWALModel lets the fuzzer write the scripts.
func FuzzWALModel(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 120)
		rng.Read(script)
		f.Add(seed, script)
	}
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 400 {
			script = script[:400]
		}
		runWALModel(t, seed, script)
	})
}

func sortedIDs(pages pageMap) []pagestore.PageID {
	ids := make([]pagestore.PageID, 0, len(pages))
	for id := range pages {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
