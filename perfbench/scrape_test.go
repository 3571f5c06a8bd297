package main

import (
	"strings"
	"testing"
)

// exposition mirrors what reoptd's /metrics serves.
const exposition = `# HELP reoptd_requests_total Requests served, by tenant, endpoint and status code (499 = client gone).
# TYPE reoptd_requests_total counter
reoptd_requests_total{tenant="default",endpoint="/v1/reoptimize",code="200"} 120
reoptd_requests_total{tenant="default",endpoint="/v1/reoptimize",code="429"} 3
reoptd_requests_total{tenant="a \"quoted\" one",endpoint="/v1/validate",code="200"} 5
reoptd_validation_cache_hits_total{tenant="default"} 900
reoptd_validation_cache_misses_total{tenant="default"} 100
reoptd_scheduler_waves_total{tenant="default"} 40
reoptd_scheduler_requests_total{tenant="default"} 60
reoptd_ready 1
`

func TestParseProm(t *testing.T) {
	samples, err := parseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 8 {
		t.Fatalf("got %d samples, want 8", len(samples))
	}
	if s := samples[2]; s.labels["tenant"] != `a "quoted" one` || s.labels["code"] != "200" || s.value != 5 {
		t.Errorf("quoted label sample = %+v", s)
	}
	if got := sumProm(samples, "reoptd_requests_total", nil); got != 128 {
		t.Errorf("all requests = %g, want 128", got)
	}
	if got := sumProm(samples, "reoptd_ready", nil); got != 1 {
		t.Errorf("reoptd_ready = %g", got)
	}
	for _, bad := range []string{"no_value_here", "m{a=\"x\" 1", "m{a=x} 1", "m 1.2.3"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(strings.NewReplacer(
		`code="200"} 120`, `code="200"} 220`,
		`code="429"} 3`, `code="429"} 5`,
		`hits_total{tenant="default"} 900`, `hits_total{tenant="default"} 1500`,
	).Replace(exposition)))
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta(before, after)
	if d.requests != 102 || d.non200 != 2 || d.hits != 600 || d.misses != 0 || d.waves != 0 {
		t.Errorf("delta = %+v", d)
	}
}
