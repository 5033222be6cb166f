package nodb

import (
	"fmt"

	"nodb/internal/monitor"
)

// Panel is the monitoring snapshot of a raw table's adaptive structures
// (the demo's Figure-2 panel). Use its String method for the rendered
// display.
type Panel = monitor.Panel

// Panel captures the current monitoring panel for a raw table. For a
// multi-segment table it returns the first segment's panel; Panels returns
// every segment's.
func (db *DB) Panel(name string) (*Panel, error) {
	ps, err := db.Panels(name)
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// PoolPanel renders the DB-level chunk scheduler's current state (worker
// occupancy, scan queues, lifetime totals) in the monitoring panels' style.
func (db *DB) PoolPanel() string {
	return monitor.PoolPanel(db.sched.Stats())
}

// Panels captures the monitoring panels of a raw table, one per segment in
// scan order: a single-file table yields exactly one, a multi-file table
// one per file (labeled with its path), a byte-range partitioned table one
// per partition (labeled with its byte span).
func (db *DB) Panels(name string) ([]*Panel, error) {
	t, err := db.rawTable(name)
	if err != nil {
		return nil, err
	}
	segs := t.Segments()
	if segs == nil {
		return nil, fmt.Errorf("nodb: table %q: partition discovery failed", name)
	}
	out := make([]*Panel, len(segs))
	for i, g := range segs {
		label := name
		switch lo, hi := g.Range(); {
		case t.PartitionBytes() > 0 && hi > 0:
			label = fmt.Sprintf("%s[%d/%d] bytes %d-%d", name, i, len(segs), lo, hi)
		case t.PartitionBytes() > 0:
			label = fmt.Sprintf("%s[%d/%d] bytes %d-", name, i, len(segs), lo)
		case len(segs) > 1:
			label = fmt.Sprintf("%s[%d/%d] %s", name, i, len(segs), g.Path())
		}
		out[i] = monitor.Snapshot(label, g)
	}
	return out, nil
}
