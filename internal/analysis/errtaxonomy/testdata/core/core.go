// Fixture for the errtaxonomy analyzer. The package is named core, where
// NextBatch/DrainAgg/splitter/worker/OpenScan root the scan paths.
package core

import (
	"errors"
	"fmt"

	"value"

	"nodb/internal/faults"
)

type scan struct{ path string }

// NextBatch is a scan-path root: untyped constructions are flagged, faults
// constructors and %w-wrapped sentinels are clean.
func (s *scan) NextBatch() error {
	if bad() {
		return errors.New("core: scan failed") // want `untyped errors.New on a scan path`
	}
	if worse() {
		return fmt.Errorf("core: row %d broken", 7) // want `does not verifiably wrap the faults taxonomy`
	}
	if err := s.read(); err != nil {
		return fmt.Errorf("core: reading %s: %w", s.path, faults.ErrIO)
	}
	return s.typed()
}

// typed is reachable from NextBatch; a faults constructor wrapped with %w is the
// taxonomy-preserving shape.
func (s *scan) typed() error {
	return fmt.Errorf("core: chunk 0: %w", faults.Malformed(s.path, 0, 1, "a", "not an int"))
}

// DrainAgg carries a justified suppression for a caller-misuse error.
func (s *scan) DrainAgg() error {
	//nodbvet:errtaxonomy-ok API misuse by the caller, not a scan-path fault
	return errors.New("core: DrainAgg without PushAgg")
}

// validate is construction-time and unreachable from any scan root: plain
// errors are fine here.
func validate(n int) error {
	if n < 0 {
		return fmt.Errorf("core: bad row count %d", n)
	}
	return nil
}

func (s *scan) read() error { return nil }

// OpenScan is a root consuming the dep's facts: untyped carriers whose
// error escapes through the return are flagged; wrapping, typed callees
// and locally-handled errors are clean.
func (s *scan) OpenScan(raw string) error {
	if raw == "direct" {
		return value.Parse(raw) // want `call to value\.Parse returns an untyped error`
	}
	if err := value.ParseIndirect(raw); err != nil { // want `call to value\.ParseIndirect returns an untyped error`
		return err
	}
	if err := value.Parse(raw); err != nil { // handled locally: clean
		s.path = "fallback"
	}
	if err := value.ParseTyped(raw); err != nil { // typed callee: clean
		return err
	}
	return nil
}

// worker lets the carrier's error escape but justifies it: the path is
// monitoring-only, so classification does not matter here.
func (s *scan) worker(raw string) error {
	//nodbvet:errtaxonomy-ok monitoring-only path, error string is logged not classified
	if err := value.Parse(raw); err != nil {
		return err
	}
	return nil
}

func bad() bool   { return false }
func worse() bool { return false }
