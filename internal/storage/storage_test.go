package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"reopt/internal/rel"
)

func makeTable(t *testing.T, n int) *Table {
	t.Helper()
	tab := NewTable("t", rel.NewSchema(
		rel.Column{Name: "k", Kind: rel.KindInt},
		rel.Column{Name: "v", Kind: rel.KindString},
	))
	for i := 0; i < n; i++ {
		tab.MustAppend(rel.Row{rel.Int(int64(i % 10)), rel.String_("v")})
	}
	return tab
}

func TestAppendAndRowAccess(t *testing.T) {
	tab := makeTable(t, 100)
	if tab.NumRows() != 100 {
		t.Fatalf("rows: %d", tab.NumRows())
	}
	if tab.Row(17)[0].AsInt() != 7 {
		t.Errorf("row 17: %v", tab.Row(17))
	}
	if err := tab.Append(rel.Row{rel.Int(1)}); err == nil {
		t.Error("short row should be rejected")
	}
}

func TestSchemaAttribution(t *testing.T) {
	tab := makeTable(t, 1)
	for _, c := range tab.Schema().Columns {
		if c.Table != "t" {
			t.Errorf("column %s not attributed to table", c.Name)
		}
	}
}

func TestPageAccounting(t *testing.T) {
	tab := makeTable(t, 130)
	if got := tab.NumPages(); got != 3 { // 64 rows/page
		t.Errorf("pages: %d, want 3", got)
	}
	if tab.PageOfRow(0) != 0 || tab.PageOfRow(63) != 0 || tab.PageOfRow(64) != 1 {
		t.Error("page boundaries wrong")
	}
	tab.SetRowsPerPage(10)
	if got := tab.NumPages(); got != 13 {
		t.Errorf("pages after resize: %d, want 13", got)
	}
	empty := NewTable("e", rel.NewSchema(rel.Column{Name: "x", Kind: rel.KindInt}))
	if empty.NumPages() != 1 {
		t.Error("empty table should report one page")
	}
}

func TestIndexLookup(t *testing.T) {
	tab := makeTable(t, 100)
	idx, err := tab.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	ids := idx.Lookup(rel.Int(3))
	if len(ids) != 10 {
		t.Fatalf("lookup: %d ids", len(ids))
	}
	for _, id := range ids {
		if tab.Row(id)[0].AsInt() != 3 {
			t.Errorf("row %d has wrong key", id)
		}
	}
	if idx.Lookup(rel.Int(99)) != nil {
		t.Error("missing key should return nil")
	}
	if idx.Lookup(rel.Null) != nil {
		t.Error("NULL lookup should return nil")
	}
	if idx.NumDistinct() != 10 {
		t.Errorf("distinct: %d", idx.NumDistinct())
	}
}

func TestIndexMaintainedOnAppend(t *testing.T) {
	tab := makeTable(t, 10)
	idx, err := tab.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	tab.MustAppend(rel.Row{rel.Int(777), rel.String_("new")})
	ids := idx.Lookup(rel.Int(777))
	if len(ids) != 1 || ids[0] != 10 {
		t.Errorf("index missed appended row: %v", ids)
	}
}

func TestDuplicateIndexRejected(t *testing.T) {
	tab := makeTable(t, 10)
	if _, err := tab.CreateIndex("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateIndex("k"); err == nil {
		t.Error("duplicate index should error")
	}
	if _, err := tab.CreateIndex("nope"); err == nil {
		t.Error("unknown column should error")
	}
	if got := len(tab.Indexes()); got != 1 {
		t.Errorf("indexes: %d", got)
	}
}

func TestSampleRatioBounds(t *testing.T) {
	tab := makeTable(t, 1000)
	s0 := tab.Sample("s0", 0, 1)
	if s0.NumRows() != 0 {
		t.Errorf("ratio 0 sample has %d rows", s0.NumRows())
	}
	s1 := tab.Sample("s1", 1, 1)
	if s1.NumRows() != 1000 {
		t.Errorf("ratio 1 sample has %d rows", s1.NumRows())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ratio > 1")
		}
	}()
	tab.Sample("s2", 1.5, 1)
}

func TestSampleDeterministicAndUnbiased(t *testing.T) {
	tab := makeTable(t, 20000)
	a := tab.Sample("a", 0.1, 7)
	b := tab.Sample("b", 0.1, 7)
	if a.NumRows() != b.NumRows() {
		t.Error("same seed should give identical samples")
	}
	// Expected 2000 rows; allow 5 sigma (~sqrt(20000*0.1*0.9)=42).
	if a.NumRows() < 1790 || a.NumRows() > 2210 {
		t.Errorf("sample size %d implausible for ratio 0.1", a.NumRows())
	}
}

// Property: every sampled row exists in the base table with the same
// contents (samples are subsets).
func TestSampleSubsetProperty(t *testing.T) {
	tab := makeTable(t, 500)
	f := func(seed int64) bool {
		s := tab.Sample("s", 0.2, seed)
		base := map[string]int{}
		for _, r := range tab.Rows() {
			base[r.String()]++
		}
		for _, r := range s.Rows() {
			if base[r.String()] == 0 {
				return false
			}
			base[r.String()]--
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestColumnValues(t *testing.T) {
	tab := makeTable(t, 30)
	vals := tab.ColumnValues(0)
	if len(vals) != 30 || vals[13].AsInt() != 3 {
		t.Errorf("column values wrong: %d", len(vals))
	}
}

func TestIndexHeightAndLeafPages(t *testing.T) {
	tab := NewTable("t", rel.NewSchema(rel.Column{Name: "k", Kind: rel.KindInt}))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		tab.MustAppend(rel.Row{rel.Int(rng.Int63n(1000))})
	}
	idx, err := tab.CreateIndex("k")
	if err != nil {
		t.Fatal(err)
	}
	if idx.LeafPages() < 100 {
		t.Errorf("leaf pages: %d", idx.LeafPages())
	}
	if h := idx.Height(); h < 2 || h > 4 {
		t.Errorf("height: %d", h)
	}
}
