package main

import (
	"reflect"
	"testing"
)

func TestTemplateStreamIsSeeded(t *testing.T) {
	a, b := tmplStream(5, 2000), tmplStream(5, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different template streams")
	}
	if reflect.DeepEqual(a, tmplStream(6, 2000)) {
		t.Fatal("different seeds gave the same template stream")
	}
	distinct := len(firstDistinct(a, len(a)))
	if max := len(sqlTemplates) * tmplConstants; distinct > max || distinct < max/2 {
		t.Errorf("%d distinct texts, want at most %d and most of them", distinct, max)
	}
}

func TestOTTStreamIsSeeded(t *testing.T) {
	cat, err := ottCatalog()
	if err != nil {
		t.Fatal(err)
	}
	a, err := ottStream(cat, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ottStream(cat, 3, 200)
	c, _ := ottStream(cat, 4, 200)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("OTT stream is not a function of its seed")
	}
	if len(firstDistinct(a, len(a))) != len(a) {
		t.Error("OTT stream repeats a text")
	}
}

func TestTPCHStreamIsSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the TPC-H catalog")
	}
	cat, err := tpchCatalog()
	if err != nil {
		t.Fatal(err)
	}
	a, err := tpchStream(cat, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tpchStream(cat, 8, 3)
	c, _ := tpchStream(cat, 9, 3)
	if len(a) != 3*len(tpchTemplateIDs()) || !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Fatal("TPC-H stream is not a function of its seed")
	}
	q1, err := tpchQuality(cat)
	if err != nil {
		t.Fatal(err)
	}
	q2, _ := tpchQuality(cat)
	// A template with few parameter values may draw one text twice.
	n := len(tpchTemplateIDs())
	if len(q1) < n || len(q1) > tpchQualityPer*n || !reflect.DeepEqual(q1, q2) {
		t.Errorf("TPC-H quality set: %d texts, want %d to %d, the same on every call", len(q1), n, tpchQualityPer*n)
	}
}

// TestTemplateQualityIsTheWholeDomain checks the template quality set
// holds every text the template stream can draw, once.
func TestTemplateQualityIsTheWholeDomain(t *testing.T) {
	q, _ := tmplQuality(nil)
	if want := len(sqlTemplates) * tmplConstants; len(q) != want || len(firstDistinct(q, len(q))) != want {
		t.Fatalf("quality set has %d texts, want %d distinct", len(q), want)
	}
	in := make(map[string]bool, len(q))
	for _, s := range q {
		in[s] = true
	}
	for _, s := range tmplStream(5, 5000) {
		if !in[s] {
			t.Fatalf("stream text %q is not in the quality set", s)
		}
	}
}
