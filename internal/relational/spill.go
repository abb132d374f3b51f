package relational

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"raven/internal/data"
	"raven/internal/fault"
)

// Out-of-core execution: a memory budget under which every pipeline
// breaker bounds its resident working set by spilling encoded column
// blocks (internal/data's block format) to temp files. There is one budget
// mode: a query's MemBudget always draws its breakers' reservations from a
// GlobalBudget shared with every concurrent query; a budget private to one
// query is NewGlobalBudget(bytes, dir).QueryBudgetFor(1), whose floor is
// the whole total.
//
// The three breakers spill differently because each has a different
// invariant to preserve (all three keep the byte-identity contract —
// spilled results, including row order, equal the in-memory serial
// baseline at any DOP):
//
//   - Hash join build: the build ROWS spill; the key column and the typed
//     index stay resident (dict keys keep the fixed per-code bucket
//     array — no resizing, no rehashing). Probes still emit (probe row
//     order × ascending build row order); only the row gather goes
//     through the spill file. A grace-hash join would repartition both
//     sides and reorder output, which the determinism contract forbids.
//   - Grouped aggregation: grace-hash partition spill. Groups are
//     hash-partitioned by canonical key bytes; each spilled row carries
//     the group's partial state plus a global fold sequence number.
//     Partitions are re-folded one at a time (rows in fold order, so
//     per-key fold order — and therefore every float — equals serial),
//     and the final output is ordered by each group's first-occurrence
//     sequence number: exactly the serial first-occurrence order.
//   - Sort: the runs — one per input batch, or per morsel when exchanged —
//     are written to disk and k-way merged externally with the same
//     earlier-run tie-break the in-memory merge uses, so the merged
//     permutation stays the serial stable sort.
//
// Lifecycle: the engine creates one MemBudget per query, hands it to the
// breakers in the Env it opens the plan with and defers Cleanup, so every
// error, cancel and panic path removes all spill files — including the
// join build's, which must outlive operator Close (worker clones are
// created after the template closes). fault.Inject sites
// spill.write/spill.read cover the IO boundaries.

// MemBudget is one query's share of a GlobalBudget: every breaker of the
// query reserves its resident bytes from the shared accountant, with the
// query's floor always granted so no query livelocks under pressure from
// its neighbors. It tracks every spill file created under it so one
// Cleanup call releases whatever execution left behind.
type MemBudget struct {
	// global is the accountant this query's breaker reservations draw
	// from; floor is the query's guaranteed resident allowance under it.
	// reserved (guarded by global.mu) is the query's total granted
	// reservation bytes.
	global   *GlobalBudget
	floor    int64
	reserved int64
	released bool

	mu      sync.Mutex
	files   map[*spillFile]bool
	spilled int64
	spills  int
}

// spillUnit returns the resident byte bound a spilling breaker should
// buffer against once it has switched to spilling: the query's guaranteed
// floor.
func (b *MemBudget) spillUnit() int64 { return max(b.floor, 1) }

// Reservation is one breaker's claim on the budget. Breakers call Over
// with their current resident byte count; a granted call sets the
// reservation to exactly that count (reservations shrink as well as grow),
// so the accountant tracks the true sum of resident breaker bytes across
// concurrent queries.
type Reservation struct {
	b *MemBudget
	n int64
}

// Reserve registers a new breaker reservation (nil-safe: a nil budget
// returns a nil reservation whose Over is always false).
func (b *MemBudget) Reserve() *Reservation {
	if b == nil {
		return nil
	}
	return &Reservation{b: b}
}

// Over reports whether the breaker, now holding retained resident bytes,
// must spill. It tries to set the reservation to retained: shrinking
// always succeeds, and growth is granted while the query sits within its
// floor or the global budget has headroom; a denied grow leaves the
// reservation unchanged and tells the breaker to spill.
func (r *Reservation) Over(retained int64) bool {
	return r != nil && !r.b.global.setReservation(r.b, r, retained)
}

// Release returns the reservation to the accountant; the query-level
// Cleanup also releases anything still held.
func (r *Reservation) Release() {
	if r != nil {
		r.b.global.setReservation(r.b, r, 0)
	}
}

// GlobalBudget is the engine-wide memory accountant: the resident breaker
// bytes of every concurrent query draw from one shared Total. Queries
// join via QueryBudgetFor, which derives an admission-aware floor
// (Total / admission cap) each query is always granted regardless of
// global pressure — concurrent neighbors can force a query to spill
// sooner, never to livelock.
type GlobalBudget struct {
	total int64
	dir   string

	mu       sync.Mutex
	reserved int64
	active   int
	spilled  int64
	spills   int
}

// NewGlobalBudget returns an engine-global budget of total resident bytes
// writing spill files under dir (empty selects the OS temp directory).
func NewGlobalBudget(total int64, dir string) *GlobalBudget {
	if dir == "" {
		dir = os.TempDir()
	}
	return &GlobalBudget{total: total, dir: dir}
}

// QueryBudgetFor registers a query against the global budget and returns
// its MemBudget. admitCap is the admission cap bounding how many budgeted
// queries run at once: the floor is Total/admitCap, so even with every
// admission slot spilling concurrently the floors cannot oversubscribe the
// total (admitCap 1 gives one query the whole total). The caller must
// defer Cleanup, which releases the query's reservations and spill files.
func (g *GlobalBudget) QueryBudgetFor(admitCap int) *MemBudget {
	if g == nil {
		return nil
	}
	b := &MemBudget{global: g, files: make(map[*spillFile]bool)}
	if admitCap > 0 {
		b.floor = g.total / int64(admitCap)
	}
	g.mu.Lock()
	g.active++
	g.mu.Unlock()
	return b
}

// setReservation moves reservation r of query q to want bytes, returning
// whether the move was granted. Shrinks always succeed; grows succeed
// while the query is within its floor or the global total has headroom.
func (g *GlobalBudget) setReservation(q *MemBudget, r *Reservation, want int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	delta := want - r.n
	if delta > 0 && q.reserved+delta > q.floor && g.reserved+delta > g.total {
		return false
	}
	r.n = want
	q.reserved += delta
	g.reserved += delta
	return true
}

// releaseQuery returns everything query q still holds (called by Cleanup;
// idempotent so a double Cleanup cannot corrupt the accountant).
func (g *GlobalBudget) releaseQuery(q *MemBudget) {
	g.mu.Lock()
	if !q.released {
		g.reserved -= q.reserved
		q.reserved = 0
		g.active--
		q.released = true
	}
	g.mu.Unlock()
}

func (g *GlobalBudget) addSpilled(n int64, files int) {
	g.mu.Lock()
	g.spilled += n
	g.spills += files
	g.mu.Unlock()
}

// Total returns the global resident byte budget.
func (g *GlobalBudget) Total() int64 {
	if g == nil {
		return 0
	}
	return g.total
}

// Reserved returns the resident breaker bytes currently reserved across
// all active queries.
func (g *GlobalBudget) Reserved() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.reserved
}

// SpilledBytes returns the cumulative bytes spilled under this budget
// across all queries since creation.
func (g *GlobalBudget) SpilledBytes() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spilled
}

// Spills returns the cumulative spill file count across all queries.
func (g *GlobalBudget) Spills() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spills
}

// ActiveQueries returns the number of queries currently drawing from the
// budget.
func (g *GlobalBudget) ActiveQueries() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.active
}

// newSpillFile creates and registers a temp spill file.
func (b *MemBudget) newSpillFile(label string) (*spillFile, error) {
	f, err := os.CreateTemp(b.global.dir, "raven-spill-"+label+"-*.bin")
	if err != nil {
		return nil, err
	}
	sf := &spillFile{b: b, f: f}
	b.mu.Lock()
	b.files[sf] = true
	b.spills++
	b.mu.Unlock()
	b.global.addSpilled(0, 1)
	return sf, nil
}

func (b *MemBudget) addSpilled(n int64) {
	b.mu.Lock()
	b.spilled += n
	b.mu.Unlock()
	b.global.addSpilled(n, 0)
}

// SpilledBytes returns the total bytes written to spill files under this
// budget.
func (b *MemBudget) SpilledBytes() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spilled
}

// Spills returns the number of spill files created under this budget.
func (b *MemBudget) Spills() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spills
}

// Cleanup closes and removes every spill file still registered. The
// engine defers it for the whole query, so error, cancel and panic paths
// cannot leak temp files; files already released (eager cleanup after a
// successful merge) are gone from the registry and not touched again.
func (b *MemBudget) Cleanup() {
	if b == nil {
		return
	}
	b.mu.Lock()
	files := make([]*spillFile, 0, len(b.files))
	for sf := range b.files {
		files = append(files, sf)
	}
	b.files = make(map[*spillFile]bool)
	b.mu.Unlock()
	for _, sf := range files {
		sf.close()
	}
	b.global.releaseQuery(b)
}

// spillFile is one temp file of encoded column blocks, append-written and
// randomly read. Writes reserve their offset under the lock and WriteAt
// concurrently; reads go through ReadAt, so concurrent probe gathers need
// no read lock of their own.
type spillFile struct {
	b *MemBudget

	mu  sync.Mutex
	f   *os.File
	off int64
}

// blockRef locates one encoded column block in a spill file. The metadata
// stays in memory — only payload bytes hit disk — so dictionary blocks
// keep their live *Dictionary pointer across the round trip.
type blockRef struct {
	meta data.BlockMeta
	off  int64
	n    int
}

// writeBlock encodes a column and appends its payload to the file.
func (sf *spillFile) writeBlock(c *data.Column) (blockRef, error) {
	if err := fault.Inject(fault.SiteSpillWrite); err != nil {
		return blockRef{}, err
	}
	m, raw, err := data.EncodeColumn(c)
	if err != nil {
		return blockRef{}, err
	}
	sf.mu.Lock()
	f := sf.f
	off := sf.off
	sf.off += int64(len(raw))
	sf.mu.Unlock()
	if f == nil {
		return blockRef{}, fmt.Errorf("relational: write to released spill file")
	}
	if len(raw) > 0 {
		if _, err := f.WriteAt(raw, off); err != nil {
			return blockRef{}, fmt.Errorf("relational: spill write: %w", err)
		}
	}
	sf.b.addSpilled(int64(len(raw)))
	return blockRef{meta: m, off: off, n: len(raw)}, nil
}

// readBlock reads a block's payload back and decodes it.
func (sf *spillFile) readBlock(ref blockRef) (*data.Column, error) {
	if err := fault.Inject(fault.SiteSpillRead); err != nil {
		return nil, err
	}
	sf.mu.Lock()
	f := sf.f
	sf.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("relational: read from released spill file")
	}
	raw := make([]byte, ref.n)
	if ref.n > 0 {
		if _, err := f.ReadAt(raw, ref.off); err != nil {
			return nil, fmt.Errorf("relational: spill read: %w", err)
		}
	}
	return data.DecodeColumn(ref.meta, raw)
}

// bytesWritten returns the bytes appended to this file so far.
func (sf *spillFile) bytesWritten() int64 {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	return sf.off
}

// release closes and removes the file eagerly (successful finalize) and
// unregisters it from the budget.
func (sf *spillFile) release() {
	sf.b.mu.Lock()
	delete(sf.b.files, sf)
	sf.b.mu.Unlock()
	sf.close()
}

func (sf *spillFile) close() {
	sf.mu.Lock()
	defer sf.mu.Unlock()
	if sf.f == nil {
		return
	}
	name := sf.f.Name()
	sf.f.Close()
	os.Remove(name)
	sf.f = nil
}

// spillTable references one table slab written to a spill file: one block
// per column, all with the same row count.
type spillTable struct {
	name   string
	rows   int
	blocks []blockRef
}

// writeTable writes all columns of t as one slab.
func writeTable(sf *spillFile, t *data.Table) (spillTable, error) {
	st := spillTable{name: t.Name, rows: t.NumRows(), blocks: make([]blockRef, 0, t.NumCols())}
	for _, c := range t.Cols {
		ref, err := sf.writeBlock(c)
		if err != nil {
			return spillTable{}, err
		}
		st.blocks = append(st.blocks, ref)
	}
	return st, nil
}

// readTable decodes one slab back into a table identical to the one
// written (dictionary columns decode over the same shared *Dictionary).
func readTable(sf *spillFile, st spillTable) (*data.Table, error) {
	t, err := data.NewTable(st.name)
	if err != nil {
		return nil, err
	}
	for _, ref := range st.blocks {
		c, err := sf.readBlock(ref)
		if err != nil {
			return nil, err
		}
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// spillSlabRows is the row count of one spill slab: the unit of decode on
// the read path, sized like a morsel so a reader holds one slab's worth
// of decoded columns at a time.
const spillSlabRows = 4096

// writeTableSlabs writes t as a sequence of slabs of at most
// spillSlabRows rows each.
func writeTableSlabs(sf *spillFile, t *data.Table) ([]spillTable, error) {
	n := t.NumRows()
	slabs := make([]spillTable, 0, (n+spillSlabRows-1)/spillSlabRows)
	for lo := 0; lo < n; lo += spillSlabRows {
		hi := min(lo+spillSlabRows, n)
		st, err := writeTable(sf, t.Slice(lo, hi))
		if err != nil {
			return nil, err
		}
		slabs = append(slabs, st)
	}
	return slabs, nil
}

// SetBudget is a no-op kept for callers written against the former
// post-lowering stamping walk: the budget now reaches every breaker through
// the Env passed to Open (engine.ExecuteContext builds it from
// Profile.GlobalBudget).
func SetBudget(*MemBudget, Operator) {}

// buildRows abstracts where a join's build rows live: resident (memRows)
// or spilled (spilledBuildRows). Gather returns the rows at the given
// indices, in index order — the only access the probe path needs.
type buildRows interface {
	Gather(idx []int) (*data.Table, error)
}

// memRows is the resident build-row store — the pre-spill behavior.
type memRows struct{ t *data.Table }

func (m memRows) Gather(idx []int) (*data.Table, error) { return m.t.Gather(idx), nil }

// spilledBuildRows stores the build rows as spill slabs, keeping only a
// zero-row prototype (for schema and dictionaries) and one decoded slab
// cached. Worker probes run concurrently, so Gather serializes on the
// cache lock; each call decodes a needed slab at most once while its
// indices stay within it.
type spilledBuildRows struct {
	sf     *spillFile
	proto  *data.Table
	slabs  []spillTable
	starts []int // first global row index of each slab

	mu       sync.Mutex
	cacheIdx int
	cache    *data.Table
}

func newSpilledBuildRows(sf *spillFile, rows *data.Table) (*spilledBuildRows, error) {
	slabs, err := writeTableSlabs(sf, rows)
	if err != nil {
		return nil, err
	}
	starts := make([]int, len(slabs))
	at := 0
	for i, st := range slabs {
		starts[i] = at
		at += st.rows
	}
	return &spilledBuildRows{
		sf: sf, proto: data.NewTableLike(rows),
		slabs: slabs, starts: starts, cacheIdx: -1,
	}, nil
}

// Gather assembles the rows at idx (in order) by decoding each touched
// slab and appending row by row. Decoded dictionary columns share the
// build's original dictionaries (block metadata keeps the live pointer),
// so appends stay on the shared-dict code fast path and the output is
// representation-identical to a resident gather.
func (s *spilledBuildRows) Gather(idx []int) (*data.Table, error) {
	out := data.NewTableLike(s.proto)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range idx {
		si := sort.SearchInts(s.starts, j+1) - 1
		if si < 0 || si >= len(s.slabs) || j-s.starts[si] >= s.slabs[si].rows {
			return nil, fmt.Errorf("relational: spilled build row %d out of range", j)
		}
		if s.cacheIdx != si {
			t, err := readTable(s.sf, s.slabs[si])
			if err != nil {
				return nil, err
			}
			s.cache, s.cacheIdx = t, si
		}
		if err := out.AppendRow(s.cache, j-s.starts[si]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
