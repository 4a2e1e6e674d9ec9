package calgo

import (
	"calgo/internal/runstore"
)

// RunRecord is one calgo.run/v1 record of the run-history store: a
// report or bench document plus the first-class labels (tool, kind,
// verdict, time) and any free-form labels the producer attached. The
// ops server lists them on /runsz; the CLIs query the store with
// -store and -query (see EXPERIMENTS.md "Run-history store").
type RunRecord = runstore.Record
