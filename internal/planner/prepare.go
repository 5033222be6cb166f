package planner

import (
	"context"

	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/sql"
)

// Prepared is a plan skeleton: a parsed statement with its FROM/JOIN tables
// resolved against the catalog, stars expanded and output names fixed. The
// expensive, parameter-independent front half of planning runs once; Build
// then binds `?` arguments and instantiates a fresh operator tree per
// execution (operators are stateful and single-use, and bound values feed
// selectivity estimation and access-path choice, so that half cannot be
// shared).
//
// A Prepared is immutable and safe for concurrent Build calls. It snapshots
// catalog entries at preparation time; callers that mutate the catalog
// (register/drop) must discard prepared statements built before the change.
type Prepared struct {
	sel     *sql.Select
	cat     *schema.Catalog
	quals   []string
	entries []*schema.Table
	items   []sql.SelectItem // star-expanded select list
	names   []string         // output column names (pre-bind, pre-rewrite)
	noVec   bool             // hide vector kernels (DisableVec)
}

// Prepare resolves and validates a parsed statement against the catalog,
// returning the reusable plan skeleton.
func Prepare(sel *sql.Select, cat *schema.Catalog) (*Prepared, error) {
	pb := &builder{cat: cat}
	if err := pb.resolveTables(sel); err != nil {
		return nil, err
	}
	items, err := pb.expandStars(sel.Items)
	if err != nil {
		return nil, err
	}
	p := &Prepared{sel: sel, cat: cat, items: items}
	p.names = make([]string, len(items))
	for i, it := range items {
		p.names[i] = outputName(it)
	}
	for _, t := range pb.tables {
		p.quals = append(p.quals, t.qual)
		p.entries = append(p.entries, t.entry)
	}
	return p, nil
}

// DisableVec makes every plan built from this statement hide the vector
// kernels of its filter and projection expressions, so they evaluate
// through the row evaluator: the reference the SQL-level differential
// tests compare the kernels against. Call before the first Build.
func (p *Prepared) DisableVec() { p.noVec = true }

// NumParams returns the number of `?` placeholders the statement carries.
func (p *Prepared) NumParams() int { return p.sel.NumParams }

// Explain reports whether the statement is an EXPLAIN.
func (p *Prepared) Explain() bool { return p.sel.Explain }

// Tables returns the resolved catalog entries the statement references, in
// FROM/JOIN order (duplicates possible for self-joins). Callers use this for
// refresh and lifetime pinning.
func (p *Prepared) Tables() []*schema.Table { return p.entries }

// Build binds params (one expression per `?`, matched by position) and
// compiles an executable plan. ctx, when non-nil, makes the plan's leaf
// scans cancellable: once ctx is done, Next/NextBatch return ctx.Err()
// within one chunk (raw) or page (heap) of work, and parallel scan
// pipelines abandon their read-ahead.
func (p *Prepared) Build(ctx context.Context, b *metrics.Breakdown, params []sql.Expr) (*Plan, error) {
	sel, items, err := sql.BindSelect(p.sel, p.items, params)
	if err != nil {
		return nil, err
	}
	pb := &builder{cat: p.cat, b: b, ctx: ctx, noVec: p.noVec}
	for i := range p.entries {
		pb.tables = append(pb.tables, &tableSrc{
			qual: p.quals[i], entry: p.entries[i], refSet: map[int]bool{},
		})
	}
	return pb.buildResolved(sel, items, p.names)
}
