// Race: the Part-III "friendly race". Four engines get the same raw file
// and the same query sequence. PostgresRaw starts answering immediately;
// the conventional engines must load (and DBMS X builds an index) first.
// The output shows cumulative time-to-answer for every query.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"nodb"
	"nodb/internal/datagen"
	"nodb/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "nodb-race-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	spec := datagen.IntTable(300_000, 10, 3)
	csv := filepath.Join(dir, "race.csv")
	if _, err := spec.WriteFile(csv); err != nil {
		log.Fatal(err)
	}
	qs := workload.ShiftingWindows("t", spec.Schema(), 2, 4, 3)

	// Each contestant's setup returns once it can answer its first query.
	load := func(p nodb.Profile, indexCols ...string) func(*nodb.DB) error {
		return func(db *nodb.DB) error {
			_, _, err := db.Load("t", csv, spec.SchemaSpec(), p, indexCols...)
			return err
		}
	}
	contestants := []struct {
		name  string
		setup func(*nodb.DB) error
	}{
		{"postgresraw", func(db *nodb.DB) error { return db.RegisterRaw("t", csv, spec.SchemaSpec(), nil) }},
		{"postgresql", load(nodb.ProfilePostgres)},
		{"mysql", load(nodb.ProfileMySQL)},
		{"dbms-x", load(nodb.ProfileDBMSX, "a0")},
	}

	// cum[c][0] is contestant c's initialization time, cum[c][i] the time
	// from the start of its run to the answer of query i.
	cum := make([][]time.Duration, len(contestants))
	for c, ct := range contestants {
		db, err := nodb.Open(nodb.Config{})
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		if err := ct.setup(db); err != nil {
			log.Fatal(err)
		}
		cum[c] = append(cum[c], time.Since(t0))
		for _, q := range qs {
			if _, err := db.Query(q.SQL); err != nil {
				log.Fatal(err)
			}
			cum[c] = append(cum[c], time.Since(t0))
		}
		db.Close()
	}

	fmt.Printf("friendly race: cumulative ms to answer, %d queries\n", len(qs))
	fmt.Printf("%-12s", "event")
	for _, ct := range contestants {
		fmt.Printf(" %12s", ct.name)
	}
	fmt.Println()
	for e := range cum[0] {
		label := "init done"
		if e > 0 {
			label = fmt.Sprintf("q%d answered", e)
		}
		fmt.Printf("%-12s", label)
		for c := range contestants {
			fmt.Printf(" %12.1f", ms(cum[c][e]))
		}
		fmt.Println()
	}

	// The paper's headline: how many queries PostgresRaw answered before
	// each conventional engine finished initializing.
	fmt.Println()
	for c := 1; c < len(contestants); c++ {
		answered := 0
		for answered < len(qs) && cum[0][answered+1] <= cum[c][0] {
			answered++
		}
		fmt.Printf("postgresraw answered %d of %d queries before %s finished initializing (%.1f ms)\n",
			answered, len(qs), contestants[c].name, ms(cum[c][0]))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
