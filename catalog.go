package nodb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nodb/internal/core"
	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

// TableSpec describes one table registration: the programmatic face of
// CREATE EXTERNAL TABLE. Every registration operation is reachable three
// ways — SQL DDL through Exec, a TableSpec through CreateTable, and the
// database/sql driver — and all of them funnel through the same path.
type TableSpec struct {
	// Name is the table name (required).
	Name string
	// Location is a CSV file path, or a glob pattern (*, ?, [...]). A glob
	// matching several files registers one table with one segment per file
	// — each with its own reader, positional map, cache and statistics —
	// scanned in sorted file order; results are identical to querying the
	// files' concatenation as a single CSV.
	Location string
	// Schema is a "name:type,..." spec (int, float, text, bool, date).
	// Empty infers the schema from a sample of the first matched file.
	Schema string
	// Mode selects the access path: "raw" (default; also "insitu") for the
	// adaptive in-situ scan, "baseline" for the paper's external-files mode,
	// "load" for conventional load-first heap storage.
	Mode string
	// Replace drops an existing registration of the same name first
	// (CREATE OR REPLACE).
	Replace bool
	// Raw tunes raw/baseline registrations (delimiter, budgets, chunking,
	// parallelism). nil gives the PostgresRaw defaults.
	Raw *RawOptions
	// Profile picks the load-first contender (USING load only).
	Profile Profile
	// IndexCols are the B+tree index columns for ProfileDBMSX.
	IndexCols []string
}

// CreateTable registers a table from a spec. It is the single registration
// path behind RegisterRaw, RegisterBaseline, Load and the Exec DDL surface.
func (db *DB) CreateTable(spec TableSpec) error {
	_, _, err := db.createTable(spec)
	return err
}

// createTable implements CreateTable, additionally returning the
// initialization time and its breakdown for load-first registrations (the
// paper's data-to-query accounting, surfaced by Load).
func (db *DB) createTable(spec TableSpec) (time.Duration, *QueryStats, error) {
	if spec.Name == "" {
		return 0, nil, fmt.Errorf("nodb: table name must not be empty")
	}
	mode := strings.ToLower(spec.Mode)
	switch mode {
	case "", "raw", "insitu":
		mode = "raw"
	case "baseline", "load":
	default:
		return 0, nil, fmt.Errorf("nodb: unknown table mode %q (want raw, baseline or load)", spec.Mode)
	}
	paths, err := expandLocation(spec.Location)
	if err != nil {
		return 0, nil, err
	}
	sch, err := db.resolveSpecSchema(paths[0], spec.Schema, spec.Raw)
	if err != nil {
		return 0, nil, err
	}

	entry := &schema.Table{Name: spec.Name, Schema: sch, Path: spec.Location}
	var initTime time.Duration
	var initStats *QueryStats
	var loadedTbl *storage.Table
	var cleanup func() // undo side effects if registration fails

	switch mode {
	case "raw", "baseline":
		opts := spec.Raw
		entry.Mode = schema.AccessInSitu
		if mode == "baseline" {
			entry.Mode = schema.AccessBaseline
			o := RawOptions{DisablePosMap: true, DisableCache: true, DisableStats: true}
			if opts != nil {
				o.Delim = opts.Delim
				o.ChunkRows = opts.ChunkRows
				o.Parallelism = opts.Parallelism
				o.PartitionBytes = opts.PartitionBytes
				o.OnError = opts.OnError
				o.MaxErrors = opts.MaxErrors
			}
			opts = &o
		}
		coreOpts, cerr := opts.coreOptions(db.parallelism)
		if cerr != nil {
			return 0, nil, cerr
		}
		coreOpts.Scheduler = db.sched
		// One table shape, three segment layouts: a glob is one segment per
		// file, a (large or explicitly partitioned) single file is byte-range
		// segments, anything else is one whole-file segment.
		var tbl *core.Table
		var terr error
		if len(paths) > 1 {
			tbl, terr = core.NewShardedTable(spec.Location, paths, sch, coreOpts)
		} else if partBytes := resolvePartitionBytes(opts, paths[0]); partBytes > 0 {
			tbl, terr = core.NewPartitionedTable(paths[0], sch, coreOpts, partBytes)
		} else {
			tbl, terr = core.NewTable(paths[0], sch, coreOpts)
		}
		if terr != nil {
			return 0, nil, terr
		}
		entry.Handle = tbl

	case "load":
		if len(paths) != 1 {
			return 0, nil, fmt.Errorf("nodb: load mode needs exactly one file, location %q matches %d", spec.Location, len(paths))
		}
		opts := storage.LoadOptions{}
		indexCols := spec.IndexCols
		switch spec.Profile {
		case ProfilePostgres:
			opts.CollectStats = true
		case ProfileMySQL:
			// plain load
		case ProfileDBMSX:
			opts.CollectStats = true
			if len(indexCols) == 0 && sch.Len() > 0 {
				indexCols = []string{sch.Col(0).Name}
			}
		default:
			return 0, nil, fmt.Errorf("nodb: unknown profile %v", spec.Profile)
		}
		for _, c := range indexCols {
			i := sch.Index(c)
			if i < 0 {
				return 0, nil, fmt.Errorf("nodb: index column %q not in schema", c)
			}
			opts.IndexAttrs = append(opts.IndexAttrs, i)
		}
		heapPath := filepath.Join(db.dataDir, fmt.Sprintf("%s-%d.heap", sanitize(spec.Name), time.Now().UnixNano()))
		var b metrics.Breakdown
		t0 := time.Now()
		tbl, lerr := storage.LoadCSV(paths[0], heapPath, sch, opts, &b)
		initTime = time.Since(t0)
		if lerr != nil {
			return 0, nil, lerr
		}
		entry.Mode = schema.AccessLoadFirst
		entry.Handle = tbl
		loadedTbl = tbl
		cleanup = func() {
			tbl.Close()
			os.Remove(heapPath)
		}
		qs := newQueryStats(&b, initTime)
		initStats = &qs
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	if spec.Replace {
		db.cat.Drop(spec.Name)
	}
	if err := db.cat.Register(entry); err != nil {
		if cleanup != nil {
			cleanup()
		}
		return 0, nil, err
	}
	db.catGen.Add(1)
	if loadedTbl != nil {
		db.loaded = append(db.loaded, loadedTbl)
	}
	return initTime, initStats, nil
}

// resolvePartitionBytes decides whether a single-file registration is split
// into byte-range partitions: an explicit PartitionBytes > 0 always
// partitions, < 0 never does, and 0 (the default) partitions files of at
// least DefaultAutoPartitionBytes so very large files parallelize across
// partition pipelines without any tuning.
func resolvePartitionBytes(opts *RawOptions, path string) int64 {
	pb := int64(0)
	if opts != nil {
		pb = opts.PartitionBytes
	}
	if pb != 0 {
		if pb < 0 {
			return 0
		}
		return pb
	}
	if fi, err := os.Stat(path); err == nil && fi.Size() >= core.DefaultAutoPartitionBytes {
		return core.DefaultAutoPartitionBytes
	}
	return 0
}

// resolveSpecSchema parses an explicit schema spec or infers one from the
// first matched file.
func (db *DB) resolveSpecSchema(firstPath, schemaSpec string, opts *RawOptions) (*schema.Schema, error) {
	if schemaSpec != "" {
		return schema.ParseSpec(schemaSpec)
	}
	delim := byte(',')
	if opts != nil && opts.Delim != 0 {
		delim = opts.Delim
	}
	return InferSchema(firstPath, delim)
}

// expandLocation resolves a location to the ordered list of shard files: a
// literal path stays as-is (existence is checked at registration), a glob
// expands to its sorted matches and must match at least one file.
func expandLocation(location string) ([]string, error) {
	if location == "" {
		return nil, fmt.Errorf("nodb: table location must not be empty")
	}
	if !strings.ContainsAny(location, "*?[") {
		return []string{location}, nil
	}
	// A literal file whose name merely contains glob metacharacters (e.g.
	// "data[1].csv") wins over pattern expansion.
	if _, err := os.Stat(location); err == nil {
		return []string{location}, nil
	}
	matches, err := filepath.Glob(location)
	if err != nil {
		return nil, fmt.Errorf("nodb: bad location glob %q: %w", location, err)
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("nodb: location %q matches no files", location)
	}
	sort.Strings(matches) // Glob sorts, but the shard order is a contract
	return matches, nil
}
