package main

import (
	"fmt"
	"math/rand"

	"reopt"
)

// The SQL streams below are the only input the system sees: every
// workload generates its queries here from the run seed and hands the
// program SQL text. The catalogs are fixed — generated from
// catalogSeed whatever the run seed — so runs with different seeds
// differ in their traffic, not in their database, and their figures
// compare.

// catalogSeed is the data seed of every workload's catalog.
const catalogSeed = 1

// Plan quality (final_plan_tuples) is measured on a quality set: a
// fixed sample of each workload's kind of traffic, generated from
// qualitySeed whatever the run seed, so the figure moves only when the
// chosen plans do.
const (
	qualitySeed = 17
	// ottQualityLen is how many OTT instances the quality set holds.
	ottQualityLen = 50
	// tpchQualityPer is how many instances of each TPC-H template it
	// holds.
	tpchQualityPer = 2
)

// ottCatalog is the paper's OTT database with GenerateOTT's defaults:
// 6 tables, 60 rows per value, 5% samples.
func ottCatalog() (*reopt.Catalog, error) {
	return reopt.GenerateOTT(reopt.OTTConfig{Seed: catalogSeed})
}

// ottStream returns up to n distinct 5-table OTT instances with m=4
// (§5.3): each is empty by construction, while its 4-table
// same-constant sub-chain is large, so the optimizer's independence
// assumption picks a bad plan that re-optimization must repair.
func ottStream(cat *reopt.Catalog, seed int64, n int) ([]string, error) {
	qs, err := reopt.OTTQueries(cat, reopt.OTTQueryConfig{
		NumTables: 5, SameConstant: 4, Count: n, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return distinctSQL(qs), nil
}

// denseOTTCatalog is the dense OTT catalog of the repository's template
// benchmark: 4 tables of 20k to 288k rows with full samples, so the
// range scans the templates guard are what validation spends on.
func denseOTTCatalog() (*reopt.Catalog, error) {
	return reopt.GenerateOTT(reopt.OTTConfig{
		Seed: catalogSeed, NumTables: 4, RowsPerValue: 720,
		Domains: []int{400, 360, 320, 28}, SampleRatio: 1.0,
	})
}

// sqlTemplates are three parametrized queries over the dense OTT
// tables whose only varying part is one range constant. The equality
// anchors sit outside every range, so the joins are empty and the
// validated work is the scans.
var sqlTemplates = []string{
	"SELECT COUNT(*) FROM r1, r2, r3 WHERE r1.a BETWEEN 1 AND %d AND r1.b BETWEEN 1 AND %d AND r2.a = 350 AND r3.a = 310 AND r1.b = r2.b AND r2.b = r3.b",
	"SELECT COUNT(*) FROM r1, r2, r3 WHERE r2.a BETWEEN 1 AND %d AND r2.b BETWEEN 1 AND %d AND r1.a = 390 AND r3.a = 310 AND r1.b = r2.b AND r2.b = r3.b",
	"SELECT COUNT(*) FROM r1, r3, r4 WHERE r3.a BETWEEN 1 AND %d AND r3.b BETWEEN 1 AND %d AND r1.a = 390 AND r4.a = 27 AND r1.b = r3.b AND r3.b = r4.b",
}

// tmplConstants is how many range constants a template draws from
// (k in [2, 2+tmplConstants)), so the traffic has at most
// len(sqlTemplates)*tmplConstants distinct texts.
const tmplConstants = 39

// tmplStream returns n arrivals of parametrized traffic: Zipf(1.4)
// template choice and Zipf(1.07) range constants, the few-templates ×
// skewed-constants shape of production query traffic.
func tmplStream(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	consts := rand.NewZipf(rng, 1.07, 1, tmplConstants-1)
	tmpls := rand.NewZipf(rng, 1.4, 1, uint64(len(sqlTemplates)-1))
	out := make([]string, n)
	for i := range out {
		k := 2 + int(consts.Uint64())
		out[i] = fmt.Sprintf(sqlTemplates[tmpls.Uint64()], k, k)
	}
	return out
}

// tmplQuality is every text the template traffic can draw.
func tmplQuality(*reopt.Catalog) ([]string, error) {
	var out []string
	for _, tpl := range sqlTemplates {
		for k := 2; k < 2+tmplConstants; k++ {
			out = append(out, fmt.Sprintf(tpl, k, k))
		}
	}
	return out, nil
}

// tpchQuality is tpchQualityPer instances of every TPC-H template.
func tpchQuality(cat *reopt.Catalog) ([]string, error) {
	var qs []*reopt.Query
	for _, id := range tpchTemplateIDs() {
		inst, err := reopt.TPCHQueries(cat, id, tpchQualityPer, qualitySeed)
		if err != nil {
			return nil, err
		}
		qs = append(qs, inst...)
	}
	return distinctSQL(qs), nil
}

// tpchCatalog is the skewed TPC-H-style database of the paper's Fig. 7
// (Z=1, 3000 customers, 5% samples).
func tpchCatalog() (*reopt.Catalog, error) {
	return reopt.GenerateTPCH(reopt.TPCHConfig{Z: 1, Seed: catalogSeed})
}

// tpchTemplateIDs are the 21 TPC-H query numbers the generator
// instantiates (Q15 needs a view and is omitted, as in the paper).
func tpchTemplateIDs() []int {
	ids := make([]int, 0, 21)
	for id := 1; id <= 22; id++ {
		if id != 15 {
			ids = append(ids, id)
		}
	}
	return ids
}

// tpchStream returns perTemplate instances of every TPC-H template,
// interleaved in a seeded random order.
func tpchStream(cat *reopt.Catalog, seed int64, perTemplate int) ([]string, error) {
	var out []string
	for _, id := range tpchTemplateIDs() {
		qs, err := reopt.TPCHQueries(cat, id, perTemplate, seed)
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			out = append(out, q.String())
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// distinctSQL renders qs as SQL text, dropping repeated texts and
// keeping first-seen order.
func distinctSQL(qs []*reopt.Query) []string {
	seen := make(map[string]bool, len(qs))
	out := make([]string, 0, len(qs))
	for _, q := range qs {
		s := q.String()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
