package main

import (
	"context"
	"io"
	"testing"
	"time"
)

func TestEnough(t *testing.T) {
	long := time.Now().Add(-time.Hour)
	cases := []struct {
		name  string
		n     int
		start time.Time
		cfg   runConfig
		want  bool
	}{
		{"warm-up short of its count", 299, long, runConfig{minSamples: 300}, false},
		{"warm-up at its count", 300, time.Now(), runConfig{minSamples: 300}, true},
		{"timed loop before its time", 5000, time.Now(), runConfig{dur: time.Minute, minSamples: 300}, false},
		{"timed loop short of samples", 10, time.Now().Add(-90 * time.Second), runConfig{dur: time.Minute, minSamples: 300}, false},
		{"timed loop with both", 300, time.Now().Add(-90 * time.Second), runConfig{dur: time.Minute, minSamples: 300}, true},
		{"timed loop past three times its time", 10, long, runConfig{dur: time.Minute, minSamples: 300}, true},
		{"time only", 0, long, runConfig{dur: time.Minute}, true},
	}
	for _, c := range cases {
		if got := enough(c.n, c.start, c.cfg); got != c.want {
			t.Errorf("%s: enough = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestWarmupSendsItsQueries runs the warm-up configuration tmpl-http
// uses against a daemon and checks it completes tmplWarmup queries.
func TestWarmupSendsItsQueries(t *testing.T) {
	ctx := context.Background()
	cat, err := ottCatalog()
	if err != nil {
		t.Fatal(err)
	}
	sqls, err := ottStream(cat, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(ctx, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	seen := d.closedLoop(ctx, nil, sqls, 0, warmup(runConfig{dur: time.Minute, log: io.Discard}))
	if len(seen) < tmplWarmup {
		t.Fatalf("warm-up completed %d queries, want %d", len(seen), tmplWarmup)
	}
	if n := countFailed(seen); n != 0 {
		t.Errorf("%d warm-up queries failed", n)
	}
}
