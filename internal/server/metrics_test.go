package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promLineRe matches one sample line: name{labels} value, with the
// label block optional.
var promLineRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [^ ]+$`)

// scrapeMetrics fetches /metrics and returns the raw text.
func scrapeMetrics(t *testing.T, c *http.Client, base string) string {
	t.Helper()
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain version 0.0.4", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sampleValue finds one exact series (full name with label block) and
// returns its value.
func sampleValue(t *testing.T, text, series string) float64 {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %s not found", series)
	return 0
}

// TestMetricsPrometheusFormat drives real traffic (a miss, a hit, an
// error, a quota shed) and then validates the scrape: every line is
// either a well-formed comment or a well-formed sample, every family
// has HELP and TYPE, histogram buckets are cumulative and end at +Inf
// == _count, and the gate/cache/quota counters carry the traffic that
// just happened.
func TestMetricsPrometheusFormat(t *testing.T) {
	db := newTestDB(t, 2000)
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 4, QuotaRate: 0.001, QuotaBurst: 2})
	base := startServer(t, srv)
	c := burstClient()

	const stmt = "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400"
	// Two misses (distinct clients so the second isn't quota-shed), one
	// hit, one taxonomy error, then quota sheds for the first client.
	if status, _, _ := postJSONWithHeader(t, c, base+"/v1/query", QueryRequest{SQL: stmt}, "X-Client-Id", "m1"); status != http.StatusOK {
		t.Fatalf("miss: %d", status)
	}
	if status, _, _ := postJSONWithHeader(t, c, base+"/v1/query", QueryRequest{SQL: stmt}, "X-Client-Id", "m2"); status != http.StatusOK {
		t.Fatalf("hit: %d", status)
	}
	if status, _, _ := postJSON(t, c, base+"/v1/query", QueryRequest{SQL: "SELECT SUM(v) FROM nope"}); status != http.StatusNotFound {
		t.Fatalf("error probe: %d", status)
	}
	quotaStatus := 0
	for i := 0; i < 4 && quotaStatus != http.StatusTooManyRequests; i++ {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM demo WHERE k BETWEEN %d AND 100", i+1)
		quotaStatus, _, _ = postJSONWithHeader(t, c, base+"/v1/query", QueryRequest{SQL: sql}, "X-Client-Id", "m1")
	}
	if quotaStatus != http.StatusTooManyRequests {
		t.Fatal("never provoked a quota shed")
	}

	text := scrapeMetrics(t, c, base)

	// Line-level validity plus HELP/TYPE bookkeeping.
	helps, types := map[string]bool{}, map[string]string{}
	var sampleFamilies []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			helps[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unknown comment form: %q", line)
			continue
		}
		if !promLineRe.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		sampleFamilies = append(sampleFamilies, name)
	}
	for _, name := range sampleFamilies {
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
				break
			}
		}
		if !helps[family] {
			t.Errorf("series %s (family %s) missing # HELP", name, family)
		}
		if types[family] == "" {
			t.Errorf("series %s (family %s) missing # TYPE", name, family)
		}
	}

	// The counters reflect the traffic above.
	if v := sampleValue(t, text, "aqppp_cache_hits_total"); v < 1 {
		t.Errorf("cache hits = %v, want >= 1", v)
	}
	if v := sampleValue(t, text, "aqppp_cache_misses_total"); v < 1 {
		t.Errorf("cache misses = %v, want >= 1", v)
	}
	if v := sampleValue(t, text, "aqppp_quota_shed_total"); v < 1 {
		t.Errorf("quota sheds = %v, want >= 1", v)
	}
	if v := sampleValue(t, text, "aqppp_gate_served_total"); v < 2 {
		t.Errorf("gate served = %v, want >= 2", v)
	}
	if v := sampleValue(t, text, `aqppp_errors_total{kind="unknown-table"}`); v < 1 {
		t.Errorf("unknown-table errors = %v, want >= 1", v)
	}
	if v := sampleValue(t, text, `aqppp_errors_total{kind="quota-exceeded"}`); v < 1 {
		t.Errorf("quota-exceeded errors = %v, want >= 1", v)
	}
	sampleValue(t, text, "aqppp_uptime_seconds")
	sampleValue(t, text, "aqppp_ready")
	sampleValue(t, text, "aqppp_cache_entries")
	sampleValue(t, text, "aqppp_cache_bytes")
	sampleValue(t, text, "aqppp_quota_clients")
	if v := sampleValue(t, text, `aqppp_http_requests_total{endpoint="/v1/query",status="200"}`); v < 2 {
		t.Errorf("/v1/query 200s = %v, want >= 2", v)
	}

	// Histogram shape for /v1/query: cumulative buckets ending at +Inf,
	// and +Inf equals _count.
	var les []float64
	var cums []float64
	var infCum, count float64
	sc = bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		const pfx = `aqppp_http_request_duration_seconds_bucket{endpoint="/v1/query",le="`
		if rest, ok := strings.CutPrefix(line, pfx); ok {
			le, val, found := strings.Cut(rest, `"} `)
			if !found {
				t.Fatalf("bad bucket line %q", line)
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("bad bucket count in %q", line)
			}
			if le == "+Inf" {
				infCum = v
				continue
			}
			lf, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("bad le bound in %q", line)
			}
			les = append(les, lf)
			cums = append(cums, v)
		}
		if rest, ok := strings.CutPrefix(line, `aqppp_http_request_duration_seconds_count{endpoint="/v1/query"} `); ok {
			count, _ = strconv.ParseFloat(rest, 64)
		}
	}
	if len(les) < 10 {
		t.Fatalf("only %d finite buckets for /v1/query", len(les))
	}
	for i := 1; i < len(les); i++ {
		if les[i] <= les[i-1] {
			t.Errorf("le bounds not increasing: %v then %v", les[i-1], les[i])
		}
		if cums[i] < cums[i-1] {
			t.Errorf("bucket counts not cumulative: %v then %v", cums[i-1], cums[i])
		}
	}
	if infCum < cums[len(cums)-1] {
		t.Errorf("+Inf bucket %v below last finite bucket %v", infCum, cums[len(cums)-1])
	}
	if infCum != count {
		t.Errorf("+Inf bucket %v != _count %v", infCum, count)
	}
	if sum := sampleValue(t, text, `aqppp_http_request_duration_seconds_sum{endpoint="/v1/query"}`); sum <= 0 {
		t.Errorf("duration _sum = %v, want > 0", sum)
	}
}

// TestStatuszKeepsExistingFieldsAndGainsCache pins the /statusz
// contract: every pre-cache field is still present under its old name,
// and the new cache/quota fields are populated.
func TestStatuszKeepsExistingFieldsAndGainsCache(t *testing.T) {
	db := newTestDB(t, 1000)
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 4, QuotaRate: 1})
	base := startServer(t, srv)
	c := burstClient()

	const stmt = "SELECT COUNT(*) FROM demo"
	for i := 0; i < 2; i++ {
		if status, _, _ := postJSON(t, c, base+"/v1/query", QueryRequest{SQL: stmt}); status != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}

	resp, err := c.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"uptime_seconds", "ready", "draining", "in_flight", "queued",
		"served_total", "shed_total", "queued_total", "concurrency_limit",
		"tables", "prepared", "endpoints",
	} {
		if _, ok := raw[field]; !ok {
			t.Errorf("/statusz lost existing field %q", field)
		}
	}
	cache, ok := raw["cache"].(map[string]any)
	if !ok {
		t.Fatal("/statusz missing cache block")
	}
	for _, field := range []string{"hits", "misses", "evictions", "entries", "bytes", "max_bytes"} {
		if _, ok := cache[field]; !ok {
			t.Errorf("cache block missing %q", field)
		}
	}
	if cache["hits"].(float64) < 1 {
		t.Errorf("cache hits = %v, want >= 1", cache["hits"])
	}
	if _, ok := raw["quota_shed_total"]; !ok {
		t.Error("/statusz missing quota_shed_total")
	}
	if _, ok := raw["quota_clients"]; !ok {
		t.Error("/statusz missing quota_clients")
	}
}
