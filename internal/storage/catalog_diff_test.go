package storage_test

import (
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/storage"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpcds"
	"reopt/internal/workload/tpch"
)

// TestCatalogIndexesMatchReference checks every index of the shipped
// generators' catalogs (OTT with its defaults, the dense OTT of the
// template benchmark, TPC-H uniform and skewed, TPC-DS) against the
// per-row reference build: Lookup for every key, NumDistinct and Height.
func TestCatalogIndexesMatchReference(t *testing.T) {
	gens := []struct {
		name string
		gen  func() (*catalog.Catalog, error)
	}{
		{"ott", func() (*catalog.Catalog, error) { return ott.Generate(ott.Config{Seed: 1}) }},
		{"denseott", func() (*catalog.Catalog, error) {
			return ott.Generate(ott.Config{
				Seed: 1, NumTables: 4, RowsPerValue: 720,
				Domains: []int{400, 360, 320, 28}, SampleRatio: 1.0,
			})
		}},
		{"tpch-z0", func() (*catalog.Catalog, error) { return tpch.Generate(tpch.Config{Z: 0, Seed: 1}) }},
		{"tpch-z1", func() (*catalog.Catalog, error) { return tpch.Generate(tpch.Config{Z: 1, Seed: 1}) }},
		{"tpcds", func() (*catalog.Catalog, error) { return tpcds.Generate(tpcds.Config{Seed: 1}) }},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) {
			cat, err := g.gen()
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, tn := range cat.TableNames() {
				tab, err := cat.Table(tn)
				if err != nil {
					t.Fatal(err)
				}
				for _, col := range tab.Indexes() {
					if err := storage.DiffIndex(tab.Index(col)); err != nil {
						t.Errorf("%s.%s: %v", tn, col, err)
					}
					n++
				}
			}
			if n == 0 {
				t.Fatal("catalog has no indexes")
			}
		})
	}
}
