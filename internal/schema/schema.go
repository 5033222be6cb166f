// Package schema describes relations: ordered, typed columns, plus the
// catalog that maps table names to their registration (raw file or loaded
// heap). The schema layer is storage-agnostic; the catalog only records how
// a table is accessed, not the structures behind it.
package schema

import (
	"fmt"
	"strings"

	"nodb/internal/value"
)

// Column is one attribute of a relation.
type Column struct {
	Name string
	Kind value.Kind
}

// Schema is an ordered list of columns with fast name lookup. The zero value
// is an empty schema; use New to build one with validation.
type Schema struct {
	cols   []Column
	byName map[string]int
}

// New builds a schema, rejecting duplicate or empty column names. Column
// name lookup is case-insensitive.
func New(cols []Column) (*Schema, error) {
	s := &Schema{cols: append([]Column(nil), cols...), byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: column %d has empty name", i)
		}
		key := strings.ToLower(c.Name)
		if _, dup := s.byName[key]; dup {
			return nil, fmt.Errorf("schema: duplicate column name %q", c.Name)
		}
		s.byName[key] = i
	}
	return s, nil
}

// MustNew is New but panics on error; for tests and literals.
func MustNew(cols []Column) *Schema {
	s, err := New(cols)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Col returns column i.
func (s *Schema) Col(i int) Column { return s.cols[i] }

// Cols returns a copy of the column list.
func (s *Schema) Cols() []Column { return append([]Column(nil), s.cols...) }

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// String renders the schema as "name:TYPE,...", the format accepted by ParseSpec.
func (s *Schema) String() string {
	parts := make([]string, len(s.cols))
	for i, c := range s.cols {
		parts[i] = fmt.Sprintf("%s:%s", c.Name, c.Kind)
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a compact schema spec like "id:int,name:text,score:float".
func ParseSpec(spec string) (*Schema, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("schema: empty spec")
	}
	parts := strings.Split(spec, ",")
	cols := make([]Column, 0, len(parts))
	for _, p := range parts {
		nv := strings.SplitN(p, ":", 2)
		if len(nv) != 2 {
			return nil, fmt.Errorf("schema: bad column spec %q (want name:type)", p)
		}
		k, err := value.ParseKind(nv[1])
		if err != nil {
			return nil, fmt.Errorf("schema: column %q: %w", nv[0], err)
		}
		cols = append(cols, Column{Name: strings.TrimSpace(nv[0]), Kind: k})
	}
	return New(cols)
}

// AccessMode says how a registered table is physically accessed.
type AccessMode uint8

// Access modes for catalog entries.
const (
	// AccessInSitu is the PostgresRaw path: queries run directly over the
	// raw file through the adaptive scan (positional map, cache, stats).
	AccessInSitu AccessMode = iota
	// AccessBaseline is the "external files" path: every query tokenizes and
	// parses the whole raw file with no auxiliary structures.
	AccessBaseline
	// AccessLoadFirst is the conventional DBMS path: the file is fully
	// loaded into binary heap storage before the first query runs.
	AccessLoadFirst
)

// String names the access mode.
func (m AccessMode) String() string {
	switch m {
	case AccessInSitu:
		return "in-situ"
	case AccessBaseline:
		return "baseline"
	case AccessLoadFirst:
		return "load-first"
	default:
		return fmt.Sprintf("AccessMode(%d)", uint8(m))
	}
}

// Table is a catalog entry.
type Table struct {
	Name   string
	Schema *Schema
	Mode   AccessMode
	Path   string // raw file path (in-situ/baseline) or original source (load-first)

	// Handle is an opaque pointer owned by the engine layer: *core.Table
	// for raw access modes (whatever the segment layout), *storage.Table for
	// load-first tables. The catalog does not interpret it.
	Handle any
}

// Catalog maps table names to registrations. Not safe for concurrent
// mutation; the public nodb.DB serializes catalog changes.
type Catalog struct {
	tables map[string]*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Register adds a table; the name must be unused.
func (c *Catalog) Register(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("schema: table with empty name")
	}
	key := strings.ToLower(t.Name)
	if _, dup := c.tables[key]; dup {
		return fmt.Errorf("schema: table %q already registered", t.Name)
	}
	c.tables[key] = t
	return nil
}

// Lookup finds a table by name (case-insensitive).
func (c *Catalog) Lookup(name string) (*Table, bool) {
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Drop removes a table by name, reporting whether it existed.
func (c *Catalog) Drop(name string) bool {
	key := strings.ToLower(name)
	_, ok := c.tables[key]
	delete(c.tables, key)
	return ok
}

// Names returns the registered table names (unordered).
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	return out
}
