// Fixture for the mapiter analyzer. The package is named core so the
// analyzer's root set applies: commit, mergePartials, NextBatch and DrainAgg
// are ordered-commit/result-emission roots here.
package core

import (
	"sort"

	"groupmap"
)

type scan struct {
	groups map[string]int
}

// commit is a root: direct map iteration is flagged.
func (s *scan) commit() int {
	total := 0
	for _, v := range s.groups { // want `range over map in commit`
		total += v
	}
	return total
}

// NextBatch is a root; emitViaHelper is reachable from it, so its map range
// is flagged too, while sortedKeys shows the blessed shape.
func (s *scan) NextBatch() ([]string, []string) {
	return s.emitViaHelper(), s.sortedKeys()
}

func (s *scan) emitViaHelper() []string {
	var out []string
	for k := range s.groups { // want `range over map in emitViaHelper`
		out = append(out, k)
	}
	return out
}

// sortedKeys collects the keys, then sorts them.
func (s *scan) sortedKeys() []string {
	var keys []string
	for k := range s.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DrainAgg carries a justified suppression: the loop only folds into an
// order-insensitive accumulator.
func (s *scan) DrainAgg() int {
	n := 0
	//nodbvet:unordered-ok order-insensitive count accumulation
	for range s.groups {
		n++
	}
	return n
}

// unreachable is not reachable from any root: map order cannot leak into
// emitted results, so it is clean.
func (s *scan) unreachable() int {
	n := 0
	for range s.groups {
		n++
	}
	return n
}

// mergePartials is a root calling imported helpers: the mapiter.ranges
// fact carriers are flagged at the call sites, the sorted and justified
// ones stay clean.
func (s *scan) mergePartials() []string {
	_ = groupmap.Keys(s.groups)         // want `call to groupmap\.Keys iterates an unsorted map`
	_ = groupmap.KeysIndirect(s.groups) // want `call to groupmap\.KeysIndirect iterates an unsorted map`
	_ = groupmap.Count(s.groups)
	return groupmap.SortedKeys(s.groups)
}

// offPath calls a carrier outside any root-reachable function: clean here,
// but offPath itself inherits the fact for its own callers.
func (s *scan) offPath() []string {
	return groupmap.Keys(s.groups)
}
