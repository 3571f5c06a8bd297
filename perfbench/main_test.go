package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchmarkNames reads the metric names BENCHMARK.json lists under key.
func benchmarkNames(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var lists map[string]json.RawMessage
	if err := json.Unmarshal(raw, &lists); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(lists[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestOTTSessionRun runs the smallest workload end to end, untraced and
// traced, and checks each result line carries exactly the metrics
// BENCHMARK.json lists for that mode.
func TestOTTSessionRun(t *testing.T) {
	for _, c := range []struct{ trace, key string }{{"0", "end_to_end"}, {"1", "per_layer"}} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "ott-session", "--seed", "3", "--seconds", "0.2", "--trace", c.trace, "--out", t.TempDir()}
		if code := run(context.Background(), args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", c.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("trace %s: result = %+v", c.trace, r)
		}
		var got []string
		for name := range r.Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		if want := benchmarkNames(t, c.key); !reflect.DeepEqual(got, want) {
			t.Errorf("trace %s: metrics %v, BENCHMARK.json %s lists %v", c.trace, got, c.key, want)
		}
		if c.trace == "1" && r.Metrics["core.rounds_per_query"].Value < 2 {
			t.Errorf("OTT queries should take several rounds, got %g", r.Metrics["core.rounds_per_query"].Value)
		}
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
