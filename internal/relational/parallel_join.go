package relational

import (
	"fmt"
	"math"
	"sync"

	"raven/internal/data"
	"raven/internal/fault"
)

// The hash join's build and probe steps. The build (right) side is drained
// once and indexed — with a worker pool over contiguous row chunks when the
// build table is large and the join runs inside an exchange segment — into
// an immutable joinBuild, which every worker clone of the HashJoin shares.
// Because the exchange re-emits batches in morsel order and each probe
// batch expands to (left row order × ascending build row order), the join
// output is byte-identical at any DOP.

// joinBuild is the materialized build side of a hash join: the build rows
// in stream order plus a typed key index. Exactly one index is populated,
// chosen from the build key column's physical type, so probes hash (or
// array-index) the native key instead of stringifying every row:
//
//	Int64            → intIdx keyed by the raw int64
//	Float64          → bitsIdx keyed by math.Float64bits (NaNs canonical,
//	                   so all NaNs join each other like their shared "NaN"
//	                   rendering did; -0 and +0 stay distinct like "%g")
//	String (dict)    → codeLists, row lists indexed by dictionary code
//	String (raw)     → strIdx keyed by the string
//	anything else    → strIdx via AsString (legacy rendering semantics)
//
// Mixed-type probe/build key pairs fall back to a lazily built AsString
// index (strFallback), preserving the exact match semantics of the old
// all-string index. The core is immutable after construction; the probe
// caches use synchronized lazy initialization, so worker clones share one
// joinBuild without further coordination.
// Under a memory budget (spillRows) the build ROWS move to a spill file
// while the key column and the typed index stay resident, so probe
// lookups are untouched and only the row gather goes through the store.
type joinBuild struct {
	store buildRows
	n     int
	key   *data.Column

	intIdx    map[int64][]int
	bitsIdx   map[uint64][]int
	strIdx    map[string][]int
	dict      *data.Dictionary
	codeLists [][]int

	// strFallback lazily materializes an AsString index over the build
	// keys for representation-mismatched probes.
	strFallbackOnce sync.Once
	strFallback     map[string][]int

	// probeLists caches, per probe-side dictionary, the translation from
	// probe code to build row list (probe dictionaries differ from the
	// build's when the two sides were encoded independently).
	probeLists sync.Map // *data.Dictionary -> [][]int
}

// floatKey maps a float64 key to the bits every typed key index and the
// grouped spill's partition hash use: the raw bits, with every NaN payload
// collapsed onto one canonical pattern, so all NaNs join and group
// together. −0 and +0 keep their distinct bits and so stay distinct keys,
// in the join, the grouping and the spill alike; whether they should
// collapse is open with the rest of the NULL/NaN story.
func floatKey(v float64) uint64 {
	if v != v {
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(v)
}

// openBuild drains an opened build side in stream order and indexes it by
// key under env: it polls env.Ctx per batch and moves the rows to disk
// when env's budget denies them, counting the spilled bytes into st. A zero-batch build becomes emptyOf(right), so an
// empty build side keeps its real key column type.
func openBuild(env *Env, right Operator, key string, dop int, st *OpStats) (*joinBuild, error) {
	rows, err := drainConcat(env.Ctx, right, false)
	if err == nil && rows == nil {
		rows, err = emptyOf(right)
	}
	if err == nil {
		err = fault.Inject(fault.SiteJoinBuild)
	}
	if err != nil {
		return nil, err
	}
	bu, err := newJoinBuild(rows, key, dop)
	if err != nil || env.Budget == nil {
		return bu, err
	}
	spilled, err := bu.spillRows(env.Budget, rows)
	st.SpillBytes += spilled
	return bu, err
}

// buildIndexMinChunk is the smallest per-worker row range worth spawning
// an indexing goroutine for; below dop*buildIndexMinChunk rows the index
// is built serially.
const buildIndexMinChunk = 4096

// chunkIndex builds a key→row-list index over n rows. dop > 1 builds it
// with up to that many workers over contiguous row chunks; the per-chunk
// maps are merged in chunk order, so every key's row list stays in
// ascending row order and the index is identical to a serial build.
func chunkIndex[K comparable](n, dop int, keyAt func(int) K) map[K][]int {
	if dop > n/buildIndexMinChunk {
		dop = n / buildIndexMinChunk
	}
	if dop <= 1 {
		idx := make(map[K][]int, n)
		for i := 0; i < n; i++ {
			k := keyAt(i)
			idx[k] = append(idx[k], i)
		}
		return idx
	}
	chunk := (n + dop - 1) / dop
	parts := make([]map[K][]int, dop)
	var wg sync.WaitGroup
	for w := 0; w < dop; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			m := make(map[K][]int)
			for i := lo; i < hi; i++ {
				k := keyAt(i)
				m[k] = append(m[k], i)
			}
			parts[w] = m
		}(w, lo, hi)
	}
	wg.Wait()
	merged := parts[0]
	for _, m := range parts[1:] {
		if m == nil {
			continue
		}
		for k, list := range m {
			merged[k] = append(merged[k], list...)
		}
	}
	return merged
}

// newJoinBuild indexes the build rows by the typed key (see joinBuild).
// Dictionary-coded keys index by pure array writes — no hashing at all —
// which outruns even the chunked map builds, so they stay serial.
func newJoinBuild(rows *data.Table, key string, dop int) (*joinBuild, error) {
	kc := rows.Col(key)
	if kc == nil {
		return nil, fmt.Errorf("relational: join build side lacks key %q", key)
	}
	n := rows.NumRows()
	bu := &joinBuild{store: memRows{rows}, n: n, key: kc}
	switch {
	case kc.Type == data.Int64:
		bu.intIdx = chunkIndex(n, dop, func(i int) int64 { return kc.I64[i] })
	case kc.Type == data.Float64:
		bu.bitsIdx = chunkIndex(n, dop, func(i int) uint64 { return floatKey(kc.F64[i]) })
	case kc.IsDict():
		bu.dict = kc.Dict
		bu.codeLists = make([][]int, kc.Dict.Len())
		for i, code := range kc.Codes {
			bu.codeLists[code] = append(bu.codeLists[code], i)
		}
	case kc.Type == data.String:
		bu.strIdx = chunkIndex(n, dop, func(i int) string { return kc.Str[i] })
	default:
		bu.strIdx = chunkIndex(n, dop, kc.AsString)
	}
	return bu, nil
}

// spillRows moves the build rows to a spill file when the budget demands
// it, keeping the key column and the typed index resident — dict keys
// keep the fixed per-code bucket array, no resizing, no rehashing — so
// probe lookups are untouched and only the row gather reads from disk.
// Returns the bytes spilled (0 when the rows fit the budget). The spill
// file must outlive the operator's Close (worker clones are created
// after the exchange template closes), so only the budget's query-scoped
// Cleanup releases it.
func (bu *joinBuild) spillRows(b *MemBudget, rows *data.Table) (int64, error) {
	// One-shot reservation: if the accountant grants the build size it
	// stays resident (the grant is held until the query's Cleanup, since
	// probes gather from it for the rest of the query); a denied grant
	// moves the rows to disk.
	if !b.Reserve().Over(rows.ByteSize()) {
		return 0, nil
	}
	sf, err := b.newSpillFile("join")
	if err != nil {
		return 0, err
	}
	sp, err := newSpilledBuildRows(sf, rows)
	if err != nil {
		return 0, err
	}
	bu.store = sp
	return sf.bytesWritten(), nil
}

// stringIndex returns the AsString fallback index, building it on first
// use (raw-string builds reuse strIdx directly).
func (bu *joinBuild) stringIndex() map[string][]int {
	if bu.strIdx != nil {
		return bu.strIdx
	}
	bu.strFallbackOnce.Do(func() {
		n := bu.n
		idx := make(map[string][]int, n)
		for i := 0; i < n; i++ {
			k := bu.key.AsString(i)
			idx[k] = append(idx[k], i)
		}
		bu.strFallback = idx
	})
	return bu.strFallback
}

// listsForDict returns the probe-code→build-row-list translation for a
// probe-side dictionary, computed once per dictionary and cached. When
// the probe shares the build's dictionary this is the code lists
// themselves; otherwise each probe value is looked up in the build index
// once, and the per-batch probe loop indexes an array.
func (bu *joinBuild) listsForDict(d *data.Dictionary) [][]int {
	if d == bu.dict && bu.codeLists != nil {
		return bu.codeLists
	}
	if cached, ok := bu.probeLists.Load(d); ok {
		return cached.([][]int)
	}
	lists := make([][]int, d.Len())
	for code, v := range d.Values() {
		switch {
		case bu.dict != nil:
			if bc, ok := bu.dict.Code(v); ok {
				lists[code] = bu.codeLists[bc]
			}
		case bu.strIdx != nil:
			lists[code] = bu.strIdx[v]
		default:
			lists[code] = bu.stringIndex()[v]
		}
	}
	actual, _ := bu.probeLists.LoadOrStore(d, lists)
	return actual.([][]int)
}

// lookup returns a row→build-row-list accessor for one probe key column,
// picking the typed fast path when the probe representation matches the
// build index and falling back to AsString matching otherwise.
func (bu *joinBuild) lookup(kc *data.Column) func(int) []int {
	switch {
	case kc.Type == data.Int64 && bu.intIdx != nil:
		return func(i int) []int { return bu.intIdx[kc.I64[i]] }
	case kc.Type == data.Float64 && bu.bitsIdx != nil:
		return func(i int) []int { return bu.bitsIdx[floatKey(kc.F64[i])] }
	case kc.IsDict() && (bu.codeLists != nil || bu.strIdx != nil):
		lists := bu.listsForDict(kc.Dict)
		return func(i int) []int { return lists[kc.Codes[i]] }
	case kc.Type == data.String && kc.Dict == nil && bu.strIdx != nil:
		return func(i int) []int { return bu.strIdx[kc.Str[i]] }
	default:
		idx := bu.stringIndex()
		return func(i int) []int { return idx[kc.AsString(i)] }
	}
}

// probeJoinBatch joins one probe batch against the build table, returning
// nil when no row matches. Output rows follow probe row order, each
// expanded by its matches in ascending build row order.
func probeJoinBatch(b *data.Table, leftKey string, bu *joinBuild) (*data.Table, error) {
	kc := b.Col(leftKey)
	if kc == nil {
		return nil, fmt.Errorf("relational: join probe side lacks key %q", leftKey)
	}
	look := bu.lookup(kc)
	var leftIdx, rightIdx []int
	for i := 0; i < b.NumRows(); i++ {
		for _, ri := range look(i) {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, ri)
		}
	}
	if len(leftIdx) == 0 {
		return nil, nil
	}
	lg := b.Gather(leftIdx)
	rg, err := bu.store.Gather(rightIdx)
	if err != nil {
		return nil, err
	}
	out, err := data.NewTable(b.Name)
	if err != nil {
		return nil, err
	}
	for _, c := range lg.Cols {
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	for _, c := range rg.Cols {
		if err := out.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ParallelHashJoin exists only so that callers written against the former
// separate chain operator — the type switch of the frozen bench/e2e/trace.go
// — still compile: Parallelize now moves the HashJoin itself into the
// exchange segment, and nothing builds this type. It is a distinct type
// rather than an alias because an alias would repeat the HashJoin case in
// such a switch, which does not compile.
type ParallelHashJoin struct{ HashJoin }
