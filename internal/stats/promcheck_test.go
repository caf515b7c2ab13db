package stats

import (
	"strings"
	"testing"
)

func TestCheckPromAcceptsOwnOutput(t *testing.T) {
	s := New()
	s.Counter(byName["zeta"]).Add(7)
	s.Observe(byName["occ"], 3)
	var b strings.Builder
	WriteProm(&b, "asap_", s)
	if err := CheckProm(strings.NewReader(b.String())); err != nil {
		t.Fatalf("WriteProm output rejected: %v", err)
	}
}

func TestCheckPromRejects(t *testing.T) {
	cases := []struct{ name, page string }{
		{"empty", ""},
		{"bad metric name", "9leading_digit 1\n"},
		{"bad value", "asap_x notanumber\n"},
		{"unclosed braces", "asap_x{foo=\"bar\" 1\n"},
		{"unquoted label", "asap_x{foo=bar} 1\n"},
		{"unknown type", "# TYPE asap_x distribution\nasap_x 1\n"},
		{"duplicate type", "# TYPE asap_x counter\n# TYPE asap_x counter\nasap_x 1\n"},
		{"type after sample", "asap_x 1\n# TYPE asap_x counter\n"},
	}
	for _, c := range cases {
		if err := CheckProm(strings.NewReader(c.page)); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.page)
		}
	}
}

func TestCheckPromAcceptsBracesInLabelValues(t *testing.T) {
	page := "asapd_requests_total{method=\"GET\",route=\"/v1/runs/{id}\",code=\"200\"} 1\n"
	if err := CheckProm(strings.NewReader(page)); err != nil {
		t.Fatalf("braces inside a quoted label value rejected: %v", err)
	}
}

func TestCheckPromAcceptsHistogramSeries(t *testing.T) {
	page := "# TYPE h histogram\n" +
		"h_bucket{le=\"0.1\"} 1\n" +
		"h_bucket{le=\"+Inf\"} 2\n" +
		"h_sum 0.25\n" +
		"h_count 2\n"
	if err := CheckProm(strings.NewReader(page)); err != nil {
		t.Fatalf("histogram series rejected: %v", err)
	}
}
