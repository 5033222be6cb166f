// Package posmap implements the paper's adaptive positional map: low-level
// metadata about the structure of a raw file — byte positions of attribute
// boundaries — learned as a side effect of query tokenization and used by
// later queries to jump (exactly or approximately) to the attributes they
// need without re-tokenizing.
//
// Terminology follows internal/rawfile: "delimiter d" is the boundary ending
// field d; delimiter -1 is the start of the row. Positions are stored per
// row-chunk as flat []uint32 slabs relative to the chunk's base file offset,
// keeping GC cost O(#grains) rather than O(#rows x #attrs).
//
// Storage is budgeted. The eviction grain is one (chunk, delimiter-set)
// slab; the least recently used grain is dropped first, which is how the
// structure adapts when the workload moves to a different part of the file
// (the paper's Part II "query adaptation" scenario).
package posmap

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"
)

// Map is the adaptive positional map for one raw file. It is safe for
// concurrent use: grains are immutable once inserted, so a View taken by a
// scan stays readable even if the grain is evicted concurrently.
type Map struct {
	mu     sync.Mutex
	budget int64 // max bytes of position data; <=0 means unlimited
	used   int64
	chunks map[int]*chunkEntry
	lru    *list.List // of *grain; front = most recent

	// Counters (monotonic, for the monitoring panel). Atomic because the
	// hit/miss paths run per field inside scan loops.
	hits      atomic.Int64 // exact position lookups served
	nearHits  atomic.Int64 // approximate (nearest) lookups served
	misses    atomic.Int64
	evictions int64
	inserts   int64
}

type chunkEntry struct {
	base   int64 // file offset of the chunk's first row
	rows   int
	grains []*grain
}

// grain is one slab: positions of a sorted set of delimiters for every row
// of one chunk.
type grain struct {
	chunkID int
	delims  []int16  // sorted delimiter indexes (may include -1)
	pos     []uint32 // len = rows * len(delims); row-major, relative to base
	bytes   int64
	elem    *list.Element
}

// New creates a positional map with the given byte budget (<=0: unlimited).
func New(budget int64) *Map {
	return &Map{
		budget: budget,
		chunks: make(map[int]*chunkEntry),
		lru:    list.New(),
	}
}

// SetBudget adjusts the byte budget and evicts immediately if shrinking.
func (m *Map) SetBudget(budget int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.budget = budget
	m.evictLocked()
}

// Clear drops all positional data (used when the underlying file was
// rewritten).
func (m *Map) Clear() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.chunks = make(map[int]*chunkEntry)
	m.lru.Init()
	m.used = 0
}

// DropChunk removes all positional data for one chunk (used when an append
// invalidates the file's trailing partial chunk).
func (m *Map) DropChunk(chunkID int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ce := m.chunks[chunkID]
	if ce == nil {
		return
	}
	for _, g := range ce.grains {
		m.lru.Remove(g.elem)
		m.used -= g.bytes
	}
	delete(m.chunks, chunkID)
}

// grainBytes approximates a slab's footprint for budget accounting.
func grainBytes(rows, delims int) int64 {
	return int64(rows*delims*4 + delims*2 + 64)
}

// Populate inserts positional data for one chunk: pos holds, row-major, the
// offsets (relative to base) of each delimiter in delims for rows rows.
// Delimiters already tracked by existing grains of the chunk are dropped to
// avoid double-charging the budget. Insertion makes the grain most recently
// used; if the budget overflows, least recently used grains are evicted
// (possibly including, in the worst case, grains of other chunks). The new
// grain is a copy: the caller keeps delims and pos.
func (m *Map) Populate(chunkID int, base int64, rows int, delims []int16, pos []uint32) {
	m.insert(chunkID, base, rows, delims, pos, false)
}

// Adopt is Populate for a caller that hands its slabs over. When none of
// delims is tracked for the chunk yet — a chunk's first population, the
// cold case — delims and pos become the grain as they are, with no copy,
// and Adopt reports true: the map owns them and the caller must not touch
// them again. Otherwise it keeps the new delimiters exactly as Populate does
// and reports false, leaving the slabs with the caller.
func (m *Map) Adopt(chunkID int, base int64, rows int, delims []int16, pos []uint32) bool {
	return m.insert(chunkID, base, rows, delims, pos, true)
}

// insert is Populate and Adopt; own allows the grain to be the caller's
// slabs, and the result reports that it is.
func (m *Map) insert(chunkID int, base int64, rows int, delims []int16, pos []uint32, own bool) bool {
	if rows <= 0 || len(delims) == 0 || len(pos) != rows*len(delims) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	ce := m.chunks[chunkID]
	if ce == nil {
		ce = &chunkEntry{base: base, rows: rows}
		m.chunks[chunkID] = ce
	} else if ce.rows != rows || ce.base != base {
		// Contradicts what the map already knows about this chunk (the file
		// must have changed). Callers handle rewrites via Clear; ignore.
		return false
	}

	// Which of the offered delimiters are new?
	fresh := 0
	for _, d := range delims {
		if !ce.tracks(d) {
			fresh++
		}
	}
	if fresh == 0 {
		return false
	}

	g := &grain{chunkID: chunkID}
	adopted := own && fresh == len(delims)
	if adopted {
		g.delims, g.pos = delims, pos
	} else {
		keep := make([]int, 0, fresh)
		for i, d := range delims {
			if !ce.tracks(d) {
				keep = append(keep, i)
			}
		}
		g.delims = make([]int16, len(keep))
		g.pos = make([]uint32, rows*len(keep))
		for j, i := range keep {
			g.delims[j] = delims[i]
		}
		k := len(delims)
		for r := 0; r < rows; r++ {
			for j, i := range keep {
				g.pos[r*len(keep)+j] = pos[r*k+i]
			}
		}
	}
	g.bytes = grainBytes(rows, len(g.delims))
	g.elem = m.lru.PushFront(g)
	ce.grains = append(ce.grains, g)
	m.used += g.bytes
	m.inserts++
	m.evictLocked()
	return adopted
}

// tracks reports whether a grain of the chunk holds delimiter d.
func (ce *chunkEntry) tracks(d int16) bool {
	for _, g := range ce.grains {
		for _, gd := range g.delims {
			if gd == d {
				return true
			}
		}
	}
	return false
}

// evictLocked drops least-recently-used grains until within budget.
func (m *Map) evictLocked() {
	if m.budget <= 0 {
		return
	}
	for m.used > m.budget {
		back := m.lru.Back()
		if back == nil {
			return
		}
		g := back.Value.(*grain)
		m.lru.Remove(back)
		m.used -= g.bytes
		m.evictions++
		ce := m.chunks[g.chunkID]
		if ce != nil {
			for i, gg := range ce.grains {
				if gg == g {
					ce.grains = append(ce.grains[:i], ce.grains[i+1:]...)
					break
				}
			}
			if len(ce.grains) == 0 {
				delete(m.chunks, g.chunkID)
			}
		}
	}
}

// View is a read snapshot of one chunk's positional data, merged across
// grains, used by a scan while processing that chunk. Taking a view marks
// the chunk's grains as recently used.
type View struct {
	m       *Map
	chunkID int
	base    int64
	rows    int
	// merged delimiter directory, sorted by delimiter index
	delims []int16
	srcs   []viewSrc
}

type viewSrc struct {
	g   *grain
	col int
}

// ViewChunk returns a snapshot for the chunk, or ok=false when the map holds
// nothing for it.
func (m *Map) ViewChunk(chunkID int) (View, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ce := m.chunks[chunkID]
	if ce == nil || len(ce.grains) == 0 {
		m.misses.Add(1)
		return View{}, false
	}
	v := View{m: m, chunkID: chunkID, base: ce.base, rows: ce.rows}
	for _, g := range ce.grains {
		m.lru.MoveToFront(g.elem)
		for col, d := range g.delims {
			v.delims = append(v.delims, d)
			v.srcs = append(v.srcs, viewSrc{g: g, col: col})
		}
	}
	// Sort directory by delimiter index (grains hold disjoint delim sets).
	sort.Sort(&viewSorter{v: &v})
	return v, true
}

type viewSorter struct{ v *View }

func (s *viewSorter) Len() int           { return len(s.v.delims) }
func (s *viewSorter) Less(i, j int) bool { return s.v.delims[i] < s.v.delims[j] }
func (s *viewSorter) Swap(i, j int) {
	s.v.delims[i], s.v.delims[j] = s.v.delims[j], s.v.delims[i]
	s.v.srcs[i], s.v.srcs[j] = s.v.srcs[j], s.v.srcs[i]
}

// Base returns the chunk's base file offset.
func (v *View) Base() int64 { return v.base }

// Rows returns the chunk's row count.
func (v *View) Rows() int { return v.rows }

// Delims returns the sorted delimiter indexes this view can answer.
func (v *View) Delims() []int16 { return v.delims }

// Has reports whether delimiter d is tracked.
func (v *View) Has(d int16) bool {
	i := sort.Search(len(v.delims), func(i int) bool { return v.delims[i] >= d })
	return i < len(v.delims) && v.delims[i] == d
}

// Pos returns the absolute file offset of delimiter d for row r, if tracked.
func (v *View) Pos(r int, d int16) (int64, bool) {
	i := sort.Search(len(v.delims), func(i int) bool { return v.delims[i] >= d })
	if i >= len(v.delims) || v.delims[i] != d {
		v.m.misses.Add(1)
		return 0, false
	}
	v.m.hits.Add(1)
	return v.abs(r, i), true
}

func (v *View) abs(r, i int) int64 {
	s := v.srcs[i]
	return v.base + int64(s.g.pos[r*len(s.g.delims)+s.col])
}

// NearestDelim returns the largest tracked delimiter index <= d, without
// reading any row's position (used for per-chunk scan planning).
func (v *View) NearestDelim(d int16) (int16, bool) {
	i := sort.Search(len(v.delims), func(i int) bool { return v.delims[i] > d })
	if i == 0 {
		return 0, false
	}
	return v.delims[i-1], true
}

// NearestAtOrBelow returns the largest tracked delimiter <= d for row r,
// with its absolute offset. ok=false when no tracked delimiter is <= d.
func (v *View) NearestAtOrBelow(r int, d int16) (int16, int64, bool) {
	i := sort.Search(len(v.delims), func(i int) bool { return v.delims[i] > d })
	if i == 0 {
		v.m.misses.Add(1)
		return 0, 0, false
	}
	i--
	if v.delims[i] == d {
		v.m.hits.Add(1)
	} else {
		v.m.nearHits.Add(1)
	}
	return v.delims[i], v.abs(r, i), true
}

// Stats is a snapshot of map occupancy for the monitoring panel.
type Stats struct {
	UsedBytes   int64
	BudgetBytes int64
	Grains      int
	Chunks      int
	Hits        int64
	NearHits    int64
	Misses      int64
	Evictions   int64
	Inserts     int64
}

// Stats returns current occupancy and counters.
func (m *Map) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	grains := 0
	for _, ce := range m.chunks {
		grains += len(ce.grains)
	}
	return Stats{
		UsedBytes:   m.used,
		BudgetBytes: m.budget,
		Grains:      grains,
		Chunks:      len(m.chunks),
		Hits:        m.hits.Load(),
		NearHits:    m.nearHits.Load(),
		Misses:      m.misses.Load(),
		Evictions:   m.evictions,
		Inserts:     m.inserts,
	}
}

// Coverage reports, for each delimiter index in [0, ndelims), the fraction
// of nchunks chunks that track it. Used by the monitoring panel to shade
// which parts of the file the map knows.
func (m *Map) Coverage(ndelims, nchunks int) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	cov := make([]float64, ndelims)
	if nchunks == 0 {
		return cov
	}
	for _, ce := range m.chunks {
		for _, g := range ce.grains {
			for _, d := range g.delims {
				if d >= 0 && int(d) < ndelims {
					cov[d] += 1
				}
			}
		}
	}
	for i := range cov {
		cov[i] /= float64(nchunks)
	}
	return cov
}

// ChunkCovered reports which chunk IDs in [0, nchunks) hold any positional
// data (the panel's file-region shading).
func (m *Map) ChunkCovered(nchunks int) []bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]bool, nchunks)
	for id := range m.chunks {
		if id >= 0 && id < nchunks {
			out[id] = true
		}
	}
	return out
}
