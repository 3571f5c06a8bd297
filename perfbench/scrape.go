package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the Prometheus text format reoptd's /metrics serves:
// comment lines are skipped, every other line is
// `name{label="v",...} value`.
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := promSample{name: line[:sp], value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("metrics line with unterminated labels: %q", line)
			}
			labels, err := parseLabels(s.name[i+1 : len(s.name)-1])
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			s.name, s.labels = s.name[:i], labels
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// parseLabels parses `k="v",k2="v2"` with Go-quoted values.
func parseLabels(s string) (map[string]string, error) {
	out := make(map[string]string)
	for s != "" {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without value in %q", s)
		}
		key := s[:eq]
		val, err := strconv.QuotedPrefix(s[eq+1:])
		if err != nil {
			return nil, fmt.Errorf("label %s: %w", key, err)
		}
		if out[key], err = strconv.Unquote(val); err != nil {
			return nil, err
		}
		s = strings.TrimPrefix(s[eq+1+len(val):], ",")
	}
	return out, nil
}

// sumProm adds the values of every series named name whose labels
// satisfy keep (nil keeps all).
func sumProm(samples []promSample, name string, keep func(map[string]string) bool) float64 {
	var sum float64
	for _, s := range samples {
		if s.name == name && (keep == nil || keep(s.labels)) {
			sum += s.value
		}
	}
	return sum
}

// scrape fetches and parses base's /metrics.
func scrape(ctx context.Context, hc *http.Client, base string) ([]promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
