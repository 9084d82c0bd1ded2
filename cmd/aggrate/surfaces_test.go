package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aggrate/internal/service"
)

// TestSurfacesRejectAlike: run, compare and POST /v1/jobs reject the same
// inputs, each before any instance starts. The CLI never prints its
// "running"/"comparing" line (written just before the batch starts) and the
// server accepts no job.
func TestSurfacesRejectAlike(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	cases := []struct {
		name  string
		flags []string
		// body is the JSON form of the input; empty when it has none.
		body string
		// want is the message every surface reports; httpWant, when set,
		// replaces it for the HTTP API (JSON escapes quotes).
		want, httpWant string
	}{
		{"unknown power", []string{"--power", "warp"}, `{"scenarios":["uniform"],"powers":["warp"]}`,
			`unknown power scheme "warp"`, `unknown power scheme \"warp\"`},
		{"unknown algo", []string{"--algo", "warp"}, `{"scenarios":["uniform"],"algos":["warp"]}`,
			`unknown algorithm "warp"`, `unknown algorithm \"warp\"`},
		{"unknown graph", []string{"--graph", "warp"}, `{"scenarios":["uniform"],"graph":"warp"}`,
			`unknown graph kind "warp"`, `unknown graph kind \"warp\"`},
		{"unknown scenario", []string{"--scenario", "warp"}, `{"scenarios":["warp"]}`,
			`unknown preset "warp"`, `unknown preset \"warp\"`},
		{"n=1", []string{"--n", "1"}, `{"scenarios":["uniform"],"ns":[1]}`, "need n >= 2, got 1", ""},
		{"alpha=2", []string{"--alpha", "2"}, `{"scenarios":["uniform"],"alpha":2}`, "alpha must exceed 2", ""},
		// Over HTTP a zero beta is the JSON default (2), so β=0 has no JSON
		// form; the negative case below covers the same check there.
		{"beta=0", []string{"--beta", "0"}, "", "beta must be positive", ""},
		{"beta<0", []string{"--beta", "-1"}, `{"scenarios":["uniform"],"beta":-1}`, "beta must be positive", ""},
		{"negative noise", []string{"--noise", "-1"}, `{"scenarios":["uniform"],"noise":-1}`, "noise must be non-negative", ""},
		// Zero γ or δ means the default; every other out-of-range value is
		// refused instead of silently running the default.
		{"gamma<0", []string{"--gamma", "-3"}, `{"scenarios":["uniform"],"gamma":-3}`,
			"gamma is -3, want a positive value", ""},
		{"delta<0", []string{"--delta", "-0.5"}, `{"scenarios":["uniform"],"delta":-0.5}`,
			"delta is -0.5, want a value in (0, 1)", ""},
		{"delta=1", []string{"--delta", "1"}, `{"scenarios":["uniform"],"delta":1}`,
			"delta is 1, want a value in (0, 1)", ""},
		{"delta=1.5", []string{"--delta", "1.5"}, `{"scenarios":["uniform"],"delta":1.5}`,
			"delta is 1.5, want a value in (0, 1)", ""},
		{"removed engine option", []string{"--verify-engine", "naive"}, `{"scenarios":["uniform"],"verify_engine":"naive"}`,
			"flag provided but not defined: -verify-engine", `unknown field \"verify_engine\"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cmd := range []string{"run", "compare"} {
				stdout, stderr, code := runCLI(append([]string{cmd, "--n", "60"}, tc.flags...)...)
				if code != 1 || !strings.Contains(stderr, tc.want) {
					t.Fatalf("%s: code=%d stderr=%q, want exit 1 and %q", cmd, code, stderr, tc.want)
				}
				if stdout != "" || strings.Contains(stderr, "running") || strings.Contains(stderr, "comparing") {
					t.Fatalf("%s: a batch started: stdout=%q stderr=%q", cmd, stdout, stderr)
				}
			}
			if tc.body == "" {
				return
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if tc.httpWant != "" {
				want = tc.httpWant
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), want) {
				t.Fatalf("POST: status %d body %s, want 400 and %q", resp.StatusCode, buf.String(), want)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\naggrate_jobs_submitted_total 0\n") {
		t.Fatal("the server accepted a job for a rejected input")
	}
}
