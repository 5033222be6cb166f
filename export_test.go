package nodb

// OpenRowEval opens a DB whose plans hide every vector kernel, so filters
// and projections evaluate through the row evaluator: the reference the
// differential tests compare the vectorized DB against.
func OpenRowEval(cfg Config) (*DB, error) {
	db, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	db.noVec = true
	return db, nil
}
