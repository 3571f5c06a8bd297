package stats_test

import (
	"reflect"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/stats"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpcds"
	"reopt/internal/workload/tpch"
)

// diffCatalogs are the shipped generators' catalogs: OTT with its
// defaults, the dense OTT of the template benchmark, TPC-H uniform and
// skewed, and TPC-DS.
var diffCatalogs = []struct {
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

// TestCatalogStatsMatchReference checks every column of every shipped
// catalog: the statistics the generator stored (computed from the
// index's order where the column is indexed) and a fresh AnalyzeColumn
// must both be DeepEqual to the map-based reference.
func TestCatalogStatsMatchReference(t *testing.T) {
	for _, c := range diffCatalogs {
		t.Run(c.name, func(t *testing.T) {
			cat, err := c.gen()
			if err != nil {
				t.Fatal(err)
			}
			for _, tn := range cat.TableNames() {
				tab, err := cat.Table(tn)
				if err != nil {
					t.Fatal(err)
				}
				for pos, col := range tab.Schema().Columns {
					want := stats.AnalyzeColumnReference(tab, pos, stats.AnalyzeOptions{})
					if got := cat.ColumnStats(tn, col.Name); !reflect.DeepEqual(got, want) {
						t.Errorf("%s.%s: stored stats differ from the reference", tn, col.Name)
					}
					if got := stats.AnalyzeColumn(tab, pos, stats.AnalyzeOptions{}); !reflect.DeepEqual(got, want) {
						t.Errorf("%s.%s: AnalyzeColumn differs from the reference", tn, col.Name)
					}
				}
			}
		})
	}
}
