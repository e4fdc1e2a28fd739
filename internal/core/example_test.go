package core_test

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/datagen"
)

// ExampleSystem_Query loads the paper's Figure 1 instance and runs the
// introductory keyword query.
func ExampleSystem_Query() {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.Load(ds.Schema, datagen.TPCHSpec(), ds.Data.Clone(), core.Options{Z: 8})
	if err != nil {
		log.Fatal(err)
	}
	results, err := sys.Query([]string{"John", "VCR"}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best score: %d\n", results[0].Score)
	fmt.Printf("objects: %d\n", len(results[0].Bind))
	// Output:
	// best score: 6
	// objects: 3
}

// ExampleSystem_Networks shows the candidate-network API.
func ExampleSystem_Networks() {
	ds, err := datagen.TPCHFigure1()
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.Load(ds.Schema, datagen.TPCHSpec(), ds.Data.Clone(), core.Options{Z: 6})
	if err != nil {
		log.Fatal(err)
	}
	nets, err := sys.Networks(context.Background(), []string{"TV", "VCR"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("smallest network size: %d\n", nets[0].Size())
	// Output:
	// smallest network size: 0
}
