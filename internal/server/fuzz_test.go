package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
)

// FuzzJobQuery drives the octet-stream form's one query parser plus
// normalize, for both classes that accept it: every query either fails
// with an error admission answers with 400, or normalizes to a job
// description that normalizes to itself again. Neither step may panic.
func FuzzJobQuery(f *testing.F) {
	for _, q := range []string{
		"",
		"t=0.07",
		"t=0.07&max_disk_bytes=4",
		"seed=3&t=0.07&tenant=alice",
		"wait=1&run_size=8000&seed=13&t=0.07&mode=auto&tenant=acme&warm_tables=true",
		"wait=1&run_size=4000&fan_in=4&seed=7&t=0.07&mode=hybrid",
		"run_size=abc",
		"max_shards=abc",
		"warm_tables=nope",
		"fan_in=x",
		"backend=spintronic&params.saving=0.5&mode=hybrid",
		"algorithm=onesweep-lsd&bits=8&formation=chunk&refine_at_merge=true",
		"t=0.07&params.t=0.07",
		"t=NaN",
	} {
		f.Add(q, false)
		f.Add(q, true)
	}
	cfg := Config{}.withDefaults()
	s := &Server{cfg: cfg}
	f.Fuzz(func(t *testing.T, query string, sharded bool) {
		c := streamClass
		if sharded {
			c = shardedClass
		}
		r := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: c.route, RawQuery: query},
			Header: http.Header{"Content-Type": {"application/octet-stream"}},
			Body:   http.NoBody,
		}
		spec, code, err := s.decode(c, httptest.NewRecorder(), r)
		if err != nil {
			if code != http.StatusBadRequest {
				t.Fatalf("query %q rejected with %d: %v", query, code, err)
			}
			return
		}
		if err := spec.normalize(cfg); err != nil {
			return // admission answers every normalize error with 400
		}
		again := *spec
		if err := again.normalize(cfg); err != nil {
			t.Fatalf("query %q: normalized spec fails to normalize again: %v", query, err)
		}
		if !reflect.DeepEqual(&again, spec) {
			t.Fatalf("query %q: normalize is not idempotent:\n%+v\n%+v", query, spec, &again)
		}
	})
}
