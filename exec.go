package nodb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"nodb/internal/core"
	"nodb/internal/metrics"
	"nodb/internal/sql"
	"nodb/internal/value"
)

// Exec parses and executes a DDL statement: CREATE [OR REPLACE] EXTERNAL
// TABLE, DROP TABLE [IF EXISTS], or ALTER TABLE ... SET. It is the SQL face
// of CreateTable/Drop/SetBudgets/SetComponents, so the catalog is fully
// manageable from any client (including database/sql, whose Exec routes
// here). SELECT, SHOW TABLES and DESCRIBE are not DDL and must run through
// Query/QueryContext; Exec rejects them with a pointed error. DDL takes no
// `?` parameters. ctx is checked before work starts; like Load, a USING
// load registration performs its file load synchronously and is not
// cancellable mid-load.
func (db *DB) Exec(ctx context.Context, statement string, args ...any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	st, err := sql.ParseStatement(statement)
	if err != nil {
		return err
	}
	switch st.(type) {
	case *sql.Select, *sql.ShowTables, *sql.Describe:
		// Route misdirected queries first, so a parameterized SELECT sent
		// through Exec gets the pointed redirection rather than an arity
		// complaint.
		return fmt.Errorf("nodb: Exec handles DDL only; run %s through Query", statementKind(st))
	}
	if len(args) != 0 {
		return fmt.Errorf("nodb: DDL statements take no arguments (got %d)", len(args))
	}
	switch s := st.(type) {
	case *sql.CreateTable:
		spec, err := tableSpecFromDDL(s)
		if err != nil {
			return err
		}
		return db.CreateTable(spec)
	case *sql.DropTable:
		if !db.Drop(s.Name) && !s.IfExists {
			return fmt.Errorf("nodb: unknown table %q", s.Name)
		}
		return nil
	case *sql.AlterTable:
		return db.alterTable(s)
	default:
		return fmt.Errorf("nodb: unsupported statement %T", st)
	}
}

// IsNotSelectError reports whether err came from handing a well-formed
// non-SELECT statement to a SELECT-only entry point (Prepare, or a plan
// lookup). The database/sql driver uses it to route prepared DDL through
// Exec instead.
func IsNotSelectError(err error) bool {
	var ns *notSelectError
	return errors.As(err, &ns)
}

// statementKind names a statement for error messages.
func statementKind(st sql.Statement) string {
	switch st.(type) {
	case *sql.Select:
		return "SELECT"
	case *sql.CreateTable:
		return "CREATE EXTERNAL TABLE"
	case *sql.DropTable:
		return "DROP TABLE"
	case *sql.AlterTable:
		return "ALTER TABLE"
	case *sql.ShowTables:
		return "SHOW TABLES"
	case *sql.Describe:
		return "DESCRIBE"
	default:
		return fmt.Sprintf("%T", st)
	}
}

// tableSpecFromDDL lowers a parsed CREATE EXTERNAL TABLE onto the
// programmatic TableSpec.
func tableSpecFromDDL(s *sql.CreateTable) (TableSpec, error) {
	spec := TableSpec{
		Name:     s.Name,
		Location: s.Location,
		Mode:     s.Mode,
		Replace:  s.OrReplace,
	}
	if len(s.Columns) > 0 {
		parts := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			parts[i] = c.Name + ":" + c.Type
		}
		spec.Schema = strings.Join(parts, ",")
	}
	var raw RawOptions
	haveRaw := false
	for _, o := range s.With {
		// Each mode accepts only the options that do something there:
		// baseline has no adaptive structures, load no raw scan at all.
		// Silently dropping the rest would let a typo'd registration look
		// tuned.
		switch o.Key {
		case "posmap_budget", "cache_budget", "posmap", "cache", "stats", "map_every_nth", "stats_sample_every":
			if spec.Mode == "baseline" {
				return spec, fmt.Errorf("nodb: option %s does not apply to USING baseline (no adaptive structures; only delim, chunk_rows and parallelism)", o.Key)
			}
		case "profile", "index":
			if spec.Mode != "load" {
				return spec, fmt.Errorf("nodb: option %s only applies to USING load", o.Key)
			}
		}
		switch o.Key {
		case "delim":
			if len(o.Value) != 1 {
				return spec, fmt.Errorf("nodb: option delim must be a single byte, got %q", o.Value)
			}
			raw.Delim = o.Value[0]
			haveRaw = true
		case "parallelism", "chunk_rows", "map_every_nth", "stats_sample_every", "shard_ahead":
			n, err := strconv.Atoi(o.Value)
			if err != nil {
				return spec, fmt.Errorf("nodb: option %s: bad integer %q", o.Key, o.Value)
			}
			switch o.Key {
			case "parallelism":
				raw.Parallelism = n
			case "chunk_rows":
				raw.ChunkRows = n
			case "map_every_nth":
				raw.MapEveryNth = n
			case "stats_sample_every":
				raw.StatsSampleEvery = n
			case "shard_ahead":
				if n < 0 {
					return spec, fmt.Errorf("nodb: option shard_ahead: bad count %q (want an integer >= 0; 0 means the default)", o.Value)
				}
				raw.ShardAhead = n
			}
			haveRaw = true
		case "partition_bytes":
			n, err := strconv.ParseInt(o.Value, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("nodb: option partition_bytes: bad integer %q (> 0 partitions, 0 auto, < 0 never)", o.Value)
			}
			raw.PartitionBytes = n
			haveRaw = true
		case "posmap_budget", "cache_budget":
			n, err := strconv.ParseInt(o.Value, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("nodb: option %s: bad integer %q", o.Key, o.Value)
			}
			if o.Key == "posmap_budget" {
				raw.PosMapBudget = n
			} else {
				raw.CacheBudget = n
			}
			haveRaw = true
		case "posmap", "cache", "stats":
			v, err := strconv.ParseBool(o.Value)
			if err != nil {
				return spec, fmt.Errorf("nodb: option %s: bad boolean %q", o.Key, o.Value)
			}
			switch o.Key {
			case "posmap":
				raw.DisablePosMap = !v
			case "cache":
				raw.DisableCache = !v
			case "stats":
				raw.DisableStats = !v
			}
			haveRaw = true
		case "on_error":
			if _, err := core.ParseOnErrorPolicy(strings.ToLower(o.Value)); err != nil {
				return spec, fmt.Errorf("nodb: option on_error: unknown policy %q (want 'fail', 'null' or 'skip')", o.Value)
			}
			raw.OnError = strings.ToLower(o.Value)
			haveRaw = true
		case "max_errors":
			n, err := strconv.ParseInt(o.Value, 10, 64)
			if err != nil || n < 0 {
				return spec, fmt.Errorf("nodb: option max_errors: bad count %q (want an integer >= 0)", o.Value)
			}
			raw.MaxErrors = n
			haveRaw = true
		case "profile":
			switch strings.ToLower(o.Value) {
			case "postgres":
				spec.Profile = ProfilePostgres
			case "mysql":
				spec.Profile = ProfileMySQL
			case "dbms-x", "dbmsx":
				spec.Profile = ProfileDBMSX
			default:
				return spec, fmt.Errorf("nodb: option profile: unknown profile %q (want postgres, mysql or dbms-x)", o.Value)
			}
		case "index":
			for _, c := range strings.Split(o.Value, ",") {
				if c = strings.TrimSpace(c); c != "" {
					spec.IndexCols = append(spec.IndexCols, c)
				}
			}
		default:
			return spec, fmt.Errorf("nodb: unknown table option %q", o.Key)
		}
	}
	if haveRaw {
		if spec.Mode == "load" {
			return spec, fmt.Errorf("nodb: raw-scan options (delim, budgets, ...) do not apply to USING load")
		}
		spec.Raw = &raw
	}
	return spec, nil
}

// alterTable applies ALTER TABLE ... SET options to a registered raw table:
// budgets re-split (and evict) immediately, component toggles take effect on
// the next scan. Unspecified options keep their current values.
func (db *DB) alterTable(s *sql.AlterTable) error {
	t, err := db.rawTable(s.Name)
	if err != nil {
		return err
	}
	cur := t.Options()
	posBudget, cacheBudget := cur.PosMapBudget, cur.CacheBudget
	posMap, cache, stats := cur.EnablePosMap, cur.EnableCache, cur.EnableStats
	onErr, maxErrs := cur.OnError, cur.MaxErrors
	budgetsChanged, componentsChanged, policyChanged := false, false, false
	for _, o := range s.Set {
		switch o.Key {
		case "posmap_budget", "cache_budget":
			n, err := strconv.ParseInt(o.Value, 10, 64)
			if err != nil {
				return fmt.Errorf("nodb: option %s: bad integer %q", o.Key, o.Value)
			}
			if o.Key == "posmap_budget" {
				posBudget = n
			} else {
				cacheBudget = n
			}
			budgetsChanged = true
		case "posmap", "cache", "stats":
			v, err := strconv.ParseBool(o.Value)
			if err != nil {
				return fmt.Errorf("nodb: option %s: bad boolean %q", o.Key, o.Value)
			}
			switch o.Key {
			case "posmap":
				posMap = v
			case "cache":
				cache = v
			case "stats":
				stats = v
			}
			componentsChanged = true
		case "on_error":
			p, err := core.ParseOnErrorPolicy(strings.ToLower(o.Value))
			if err != nil {
				return fmt.Errorf("nodb: option on_error: unknown policy %q (want 'fail', 'null' or 'skip')", o.Value)
			}
			onErr = p
			policyChanged = true
		case "max_errors":
			n, err := strconv.ParseInt(o.Value, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("nodb: option max_errors: bad count %q (want an integer >= 0)", o.Value)
			}
			maxErrs = n
			policyChanged = true
		case "shard_ahead", "partition_bytes", "parallelism", "chunk_rows":
			// Scan-shape options are fixed at registration: changing them
			// mid-life would invalidate learned chunk territories.
			return fmt.Errorf("nodb: option %s is fixed at registration; DROP and re-CREATE the table to change it", o.Key)
		default:
			return fmt.Errorf("nodb: unknown ALTER option %q (want posmap_budget, cache_budget, posmap, cache, stats, on_error or max_errors)", o.Key)
		}
	}
	if budgetsChanged {
		t.SetBudgets(posBudget, cacheBudget)
	}
	if componentsChanged {
		t.SetEnabled(posMap, cache, stats)
	}
	if policyChanged {
		t.SetErrorPolicy(onErr, maxErrs)
	}
	return nil
}

// catalogRows serves SHOW TABLES / DESCRIBE as ordinary result rows through
// the streaming cursor, from a ValuesOp root as EXPLAIN is.
func (db *DB) catalogRows(ctx context.Context, st sql.Statement, args []any) (*Rows, error) {
	if len(args) != 0 {
		return nil, fmt.Errorf("nodb: %s takes no arguments (got %d)", statementKind(st), len(args))
	}
	r := &Rows{db: db, ctx: ctx, b: &metrics.Breakdown{}, t0: time.Now()}
	var rows [][]value.Value
	switch s := st.(type) {
	case *sql.ShowTables:
		r.cols = []Column{
			{Name: "name", Type: "TEXT"}, {Name: "mode", Type: "TEXT"},
			{Name: "location", Type: "TEXT"}, {Name: "columns", Type: "INT"},
			{Name: "shards", Type: "INT"},
		}
		db.mu.RLock()
		names := db.cat.Names()
		sort.Strings(names)
		for _, name := range names {
			e, ok := db.cat.Lookup(name)
			if !ok {
				continue
			}
			// Segment count from discovered facts only — no file I/O under the
			// catalog lock: a byte-range table whose bounds no scan or refresh
			// has discovered yet reports NULL.
			shards := value.Int(1)
			if t, isRaw := e.Handle.(*core.Table); isRaw {
				if n := t.NumSegments(); n > 0 {
					shards = value.Int(int64(n))
				} else {
					shards = value.Null()
				}
			}
			rows = append(rows, []value.Value{
				value.Text(e.Name), value.Text(e.Mode.String()), value.Text(e.Path),
				value.Int(int64(e.Schema.Len())), shards,
			})
		}
		db.mu.RUnlock()
	case *sql.Describe:
		db.mu.RLock()
		e, ok := db.cat.Lookup(s.Name)
		db.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("nodb: unknown table %q", s.Name)
		}
		r.cols = []Column{{Name: "column", Type: "TEXT"}, {Name: "type", Type: "TEXT"}}
		for i := 0; i < e.Schema.Len(); i++ {
			c := e.Schema.Col(i)
			rows = append(rows, []value.Value{
				value.Text(c.Name), value.Text(c.Kind.String()),
			})
		}
	default:
		return nil, fmt.Errorf("nodb: cannot query %s; run it through Exec", statementKind(st))
	}
	r.serveValues(rows)
	return r, nil
}
