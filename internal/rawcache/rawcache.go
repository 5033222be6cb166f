// Package rawcache implements the paper's adaptive cache: previously
// accessed attributes, already converted to binary, held in memory so future
// queries skip raw-file access entirely for hot data.
//
// The cache follows the positional map's chunk format: the unit is a
// Fragment — one attribute's values for one row-chunk. Fragments are typed
// slabs ([]int64, []float64, or one string arena for text) rather than boxed
// values, keeping GC pressure O(#fragments). Eviction is LRU under a byte
// budget, the paper's knob for "storage space devoted to caching".
package rawcache

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"nodb/internal/value"
)

// Key identifies a fragment: one attribute of one row-chunk.
type Key struct {
	Chunk int
	Attr  int
}

// Fragment holds one attribute's binary values for every row of a chunk.
// Fragments are immutable after Put; readers may hold them across evictions.
type Fragment struct {
	Kind value.Kind
	Rows int

	ints   []int64   // int, bool, date
	floats []float64 // float
	offs   []uint32  // text: len Rows+1, offsets into text
	text   string    // text arena; a row's value is a substring of it
	nulls  []bool    // nil when no nulls

	key   Key
	bytes int64
	elem  *list.Element
}

// Value returns row r's value. A TEXT value shares the fragment's arena, so
// reading one allocates nothing.
func (f *Fragment) Value(r int) value.Value {
	if f.nulls != nil && f.nulls[r] {
		return value.Null()
	}
	switch f.Kind {
	case value.KindFloat:
		return value.Float(f.floats[r])
	case value.KindText:
		return value.Text(f.text[f.offs[r]:f.offs[r+1]])
	case value.KindBool:
		return value.Value{K: value.KindBool, I: f.ints[r]}
	case value.KindDate:
		return value.Date(f.ints[r])
	default:
		return value.Int(f.ints[r])
	}
}

// SizeBytes returns the fragment's budget footprint.
func (f *Fragment) SizeBytes() int64 { return f.bytes }

// Builder accumulates one fragment's values in row order. A TEXT
// fragment's arena grows in a strings.Builder, which Finish hands over as
// the fragment's string without copying it.
type Builder struct {
	f    *Fragment
	text strings.Builder
}

// NewBuilder starts a fragment for the given chunk/attr of `rows` rows.
func NewBuilder(key Key, kind value.Kind, rows int) *Builder {
	f := &Fragment{Kind: kind, Rows: 0, key: key}
	switch kind {
	case value.KindFloat:
		f.floats = make([]float64, 0, rows)
	case value.KindText:
		f.offs = make([]uint32, 1, rows+1)
	default:
		f.ints = make([]int64, 0, rows)
	}
	return &Builder{f: f}
}

// Append adds the next row's value; it must match the fragment kind or be
// NULL.
func (b *Builder) Append(v value.Value) {
	f := b.f
	if v.IsNull() {
		if f.nulls == nil {
			f.nulls = make([]bool, f.Rows, cap(f.ints)+cap(f.floats)+f.Rows+1)
		}
		f.nulls = append(f.nulls, true)
	} else if f.nulls != nil {
		f.nulls = append(f.nulls, false)
	}
	switch f.Kind {
	case value.KindFloat:
		f.floats = append(f.floats, v.F)
	case value.KindText:
		b.text.WriteString(v.S)
		f.offs = append(f.offs, uint32(b.text.Len()))
	default:
		f.ints = append(f.ints, v.I)
	}
	f.Rows++
}

// Finish seals the fragment and computes its footprint.
func (b *Builder) Finish() *Fragment {
	f := b.f
	f.text = b.text.String()
	f.bytes = int64(len(f.ints)*8+len(f.floats)*8+len(f.offs)*4+len(f.text)+len(f.nulls)) + 96
	return f
}

// Cache is the LRU fragment cache for one raw file. Safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64 // <=0: unlimited
	used   int64
	frags  map[Key]*Fragment
	lru    *list.List

	hits      atomic.Int64
	misses    atomic.Int64
	evictions int64
	inserts   int64
	rejected  int64 // fragments larger than the whole budget
}

// New creates a cache with the given byte budget (<=0: unlimited).
func New(budget int64) *Cache {
	return &Cache{budget: budget, frags: make(map[Key]*Fragment), lru: list.New()}
}

// SetBudget adjusts the budget, evicting if shrinking.
func (c *Cache) SetBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	c.evictLocked()
}

// Clear drops everything (file rewritten).
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frags = make(map[Key]*Fragment)
	c.lru.Init()
	c.used = 0
}

// DropChunk removes all fragments of one chunk (used when an append
// invalidates the file's trailing partial chunk).
func (c *Cache) DropChunk(chunk int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Predicate-delete: every key is tested independently, removal only
	// shrinks the byte budget, and the surviving entries' LRU order is
	// unaffected by which doomed entry goes first.
	//nodbvet:unordered-ok order-insensitive predicate-delete; visit order cannot reach any output
	for k, f := range c.frags {
		if k.Chunk == chunk {
			c.lru.Remove(f.elem)
			c.used -= f.bytes
			delete(c.frags, k)
		}
	}
}

// Get returns the fragment for key, marking it recently used.
func (c *Cache) Get(key Key) (*Fragment, bool) {
	c.mu.Lock()
	f, ok := c.frags[key]
	if ok {
		c.lru.MoveToFront(f.elem)
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return f, true
	}
	c.misses.Add(1)
	return nil, false
}

// Contains reports presence without touching LRU order or hit counters.
func (c *Cache) Contains(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.frags[key]
	return ok
}

// Put inserts a fragment built for key (replacing any previous fragment for
// the same key) and evicts LRU fragments to fit the budget. Fragments larger
// than the entire budget are rejected outright.
func (c *Cache) Put(f *Fragment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget > 0 && f.bytes > c.budget {
		c.rejected++
		return
	}
	if old, ok := c.frags[f.key]; ok {
		c.lru.Remove(old.elem)
		c.used -= old.bytes
	}
	f.elem = c.lru.PushFront(f)
	c.frags[f.key] = f
	c.used += f.bytes
	c.inserts++
	c.evictLocked()
}

func (c *Cache) evictLocked() {
	if c.budget <= 0 {
		return
	}
	for c.used > c.budget {
		back := c.lru.Back()
		if back == nil {
			return
		}
		f := back.Value.(*Fragment)
		c.lru.Remove(back)
		delete(c.frags, f.key)
		c.used -= f.bytes
		c.evictions++
	}
}

// Stats is a snapshot of cache occupancy for the monitoring panel.
type Stats struct {
	UsedBytes   int64
	BudgetBytes int64
	Fragments   int
	Hits        int64
	Misses      int64
	Evictions   int64
	Inserts     int64
	Rejected    int64
}

// Stats returns current occupancy and counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		UsedBytes:   c.used,
		BudgetBytes: c.budget,
		Fragments:   len(c.frags),
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions,
		Inserts:     c.inserts,
		Rejected:    c.rejected,
	}
}

// Utilization returns used/budget in [0,1]; 0 when unlimited.
func (c *Cache) Utilization() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 {
		return 0
	}
	return float64(c.used) / float64(c.budget)
}

// Coverage reports, per attribute index in [0, nattrs), the fraction of
// nchunks chunks cached.
func (c *Cache) Coverage(nattrs, nchunks int) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	cov := make([]float64, nattrs)
	if nchunks == 0 {
		return cov
	}
	for k := range c.frags {
		if k.Attr >= 0 && k.Attr < nattrs {
			cov[k.Attr] += 1
		}
	}
	for i := range cov {
		cov[i] /= float64(nchunks)
	}
	return cov
}

// ChunkCovered reports which chunks in [0, nchunks) have at least one cached
// fragment.
func (c *Cache) ChunkCovered(nchunks int) []bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]bool, nchunks)
	for k := range c.frags {
		if k.Chunk >= 0 && k.Chunk < nchunks {
			out[k.Chunk] = true
		}
	}
	return out
}
