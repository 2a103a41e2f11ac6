package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/session"
)

// referenceSolveRequest is the encoding/json decode of a /v1/solve body
// that scanSolveRequest must agree with.
func referenceSolveRequest(body []byte) (solveRequest, error) {
	var req solveRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

const seedInstance = `{"parents":[-1,0],"is_client":[false,true],"requests":[0,3],"capacities":[5,0],"storage_costs":[1,0]}`

// solveSeeds are envelope inputs at the edges of the single-pass
// decoder's subset.
var solveSeeds = []string{
	`{"instance":` + seedInstance + `,"solver":"mg"}`,
	`{"instance":` + seedInstance + `,"solver":"cbu","policy":"Closest"}`,
	`{"Instance":` + seedInstance + `,"solver":"mg"}`,
	`{"instance":` + seedInstance + `,"solver":"mg","solver":"mb"}`,
	`{"instance":` + strings.Replace(seedInstance, `"parents"`, `"Parents"`, 1) + `,"solver":"mg"}`,
	`{"instance":` + strings.Replace(seedInstance, `[0,3]`, `[-0,3]`, 1) + `,"solver":"mg"}`,
	`{"instance":` + strings.Replace(seedInstance, `[0,3]`, `[0,1e2]`, 1) + `,"solver":"mg"}`,
	`{"instance":` + strings.Replace(seedInstance, `[0,3]`, `[0,1234567890123456789]`, 1) + `,"solver":"mg"}`,
	`{"instance":` + strings.Replace(seedInstance, `[0,3]`, `[1,null]`, 1) + `,"solver":"mg"}`,
	`{"instance":` + strings.Replace(seedInstance, `}`, `,"extra":{"nested":[1,{"deep":true}]}}`, 1) + `,"solver":"mg"}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":{"include_solution":true}}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":{"nested":{"unknown":1}}}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":{"timeout_ms":5,"include_solution":true,"objects":[{"requests":[0,1],"storage_costs":[1,0]}]}}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":null}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":{}}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":{"Include_Solution":true}}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":{"timeout_ms":"5"}}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":{"timeout_ms":1e2}}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":"}\"{"}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":{"no_cache":true}}}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":{"no_cache":true},"options":{}}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":{"no_cache":true`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":}`,
	`{"instance":` + seedInstance + `,"solver":"mg","options":tru}`,
	`{"instance":` + seedInstance + `,"solver":"mg","bogus":1}`,
	`{"instance":` + seedInstance + `,"solver":"mg"} trailing`,
	`{"instance":` + seedInstance + `,"solver":"mg"}{"solver":"mb"}`,
	`{"instance":null,"solver":"mg"}`,
	`{"instance":` + seedInstance + `,"solver":null}`,
	`{"instance":` + seedInstance + `,"solver":"mé"}`,
	`{"instance":` + seedInstance + `,"solver":"m\\u0067"}`,
	`{"instance":` + seedInstance + `,"solver":7}`,
	`{"instance":{"parents":[0],"is_client":[false]},"solver":"mg"}`,
	`{}`,
	``,
	`[`,
}

// FuzzSolveRequest is a differential test of the single-pass /v1/solve
// envelope decode: decodeSolveRequest must accept and reject exactly
// what json.Decoder with DisallowUnknownFields does on the same bytes,
// and decode to a deeply equal request; whatever scanSolveRequest
// accepts on its own must match too. Run with
// `go test -fuzz=FuzzSolveRequest ./internal/service`.
func FuzzSolveRequest(f *testing.F) {
	for _, seed := range solveSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		body := []byte(src)
		want, wantErr := referenceSolveRequest(body)
		var got solveRequest
		gotErr := decodeSolveRequest(body, &got)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("decode err %v, reference err %v\ninput: %s", gotErr, wantErr, src)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("decode err %q, reference err %q\ninput: %s", gotErr, wantErr, src)
		case gotErr == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("decoded %+v, reference %+v\ninput: %s", got, want, src)
		}
		var fast solveRequest
		if scanSolveRequest(body, &fast) && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
			t.Fatalf("scan accepted %+v, reference %+v (err %v)\ninput: %s", fast, want, wantErr, src)
		}
	})
}

// TestScanSolveRequestTakesCommonBodies pins that json.Marshal'd
// request bodies stay on the single-pass path: an instance plus solver
// and policy, with or without options — among them the shape
// cluster.Pool.Solve sends to its workers.
func TestScanSolveRequestTakesCommonBodies(t *testing.T) {
	in := gen.Instance(gen.Config{Internal: 40, Clients: 60, QoSRange: 3, BWFactor: 0.5}, 9)
	objects := []ObjectVectors{{R: in.R, S: in.S}, {R: in.R, S: in.S}}
	for _, v := range []any{
		map[string]any{"instance": in, "solver": "mg"},
		map[string]any{"instance": in, "solver": "cbu", "policy": "Closest"},
		map[string]any{"instance": core.Figure1('b'), "solver": "refined", "policy": "Upwards"},
		map[string]any{"instance": in, "solver": "mg", "policy": "Multiple",
			"options": RequestOptions{TimeoutMS: 29000, IncludeSolution: true}},
		map[string]any{"instance": in, "solver": "mo-greedy", "policy": "Multiple",
			"options": RequestOptions{TimeoutMS: 100, NoCache: true, BoundNodes: 3, IncludeSolution: true, Objects: objects}},
	} {
		body, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var req solveRequest
		if !scanSolveRequest(body, &req) {
			t.Fatalf("single-pass decode declined a common body: %.120s", body)
		}
		want, err := referenceSolveRequest(body)
		if err != nil || !reflect.DeepEqual(req, want) {
			t.Fatalf("single-pass decode = %+v, reference %+v (err %v)", req, want, err)
		}
	}
}

// TestSolveFastPathByteIdentical checks that a body taking the
// single-pass path and the same request forced onto encoding/json (a
// case-variant "Solver" key) get the same response bytes, each serving
// the other's cached result.
func TestSolveFastPathByteIdentical(t *testing.T) {
	srv, _ := newTestServer(t)
	in := gen.Instance(gen.Config{Internal: 30, Clients: 45}, 4)
	inst, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) string {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, buf.Bytes())
		}
		out := buf.String()
		return out[:strings.Index(out, `"elapsed_ms":`)]
	}
	for _, c := range []struct{ path, solver, policy string }{
		{"/v1/solve", "mg", ""},
		{"/v1/solve", "cbu", "Closest"},
		{"/v1/solve", "utd", "Upwards"},
		{"/v1/bound", "rational", "Multiple"},
	} {
		tail := fmt.Sprintf(`%q,"options":{"include_solution":true}`, c.solver)
		if c.policy != "" {
			tail += fmt.Sprintf(`,"policy":%q`, c.policy)
		}
		fast := fmt.Sprintf(`{"instance":%s,"solver":%s}`, inst, tail)
		slow := fmt.Sprintf(`{"instance":%s,"Solver":%s}`, inst, tail)
		var req solveRequest
		if !scanSolveRequest([]byte(fast), &req) || scanSolveRequest([]byte(slow), &req) {
			t.Fatal("test bodies do not split between the two decode paths")
		}
		first := post(c.path, slow)
		again := post(c.path, fast)
		if want := strings.Replace(first, `"cached":false`, `"cached":true`, 1); again != want {
			t.Errorf("%s %s: fast path answered\n%s\nencoding/json path\n%s", c.path, c.solver, again, first)
		}
	}
}

// TestSolveCachedAllocs pins the allocations of a cache-hit /v1/solve
// at 150 vertices, in process: request, recorder, decode, tree build,
// validation, key, cache probe and response encoding.
func TestSolveCachedAllocs(t *testing.T) {
	e := newTestEngine(t, EngineOptions{Workers: 2})
	h := NewHandler(e)
	in := gen.Instance(gen.Config{Internal: 60, Clients: 90}, 7)
	for _, c := range []struct {
		name string
		body map[string]any
		max  float64
	}{
		{"plain", map[string]any{"instance": in, "solver": "mg"}, 120},
		// The shape cluster.Pool.Solve sends: options, solution included.
		{"options", map[string]any{"instance": in, "solver": "mg", "policy": "Multiple",
			"options": RequestOptions{TimeoutMS: 29000, IncludeSolution: true}}, 150},
	} {
		body, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
		serve()
		allocs := testing.AllocsPerRun(200, serve)
		t.Logf("cached /v1/solve (%s) at %d vertices: %.0f allocs", c.name, in.Tree.Len(), allocs)
		if allocs > c.max {
			t.Errorf("cached /v1/solve (%s): %.0f allocs, want ≤ %.0f", c.name, allocs, c.max)
		}
	}
}

// TestBodyTooLarge413 checks that every JSON-body endpoint answers an
// oversized body with 413 rather than 400, on a handler whose body
// limits are shrunk to a few hundred bytes.
func TestBodyTooLarge413(t *testing.T) {
	e := newTestEngine(t, EngineOptions{Workers: 2})
	m := session.NewManager(session.Options{Resolve: SessionResolver(e.Registry())})
	t.Cleanup(m.Close)
	a := newAPI(e, HandlerOptions{Sessions: m})
	a.maxBody, a.maxStream = 512, 512
	h := a.routes()

	big := gen.Instance(gen.Config{Internal: 40, Clients: 60}, 2)
	inst, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	small, err := json.Marshal(core.Figure1('a'))
	if err != nil {
		t.Fatal(err)
	}
	var ndjson strings.Builder
	ndjson.WriteString(`{"solver":"mg"}` + "\n" + `{"kind":"node","parent":-1,"capacity":5}` + "\n")
	for ndjson.Len() <= 512 {
		ndjson.WriteString(`{"kind":"client","parent":0,"rate":1}` + "\n")
	}
	pad := strings.Repeat(" ", 600)
	serve := func(method, path, ctype, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	created := serve("POST", "/v1/instances", "", `{"instance":`+string(small)+`,"solver":"mg"}`)
	var sess instancePayload
	if err := json.Unmarshal(created.Body.Bytes(), &sess); err != nil || created.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", created.Code, created.Body.Bytes())
	}
	ops := `{"ops":[` + strings.Repeat(`{"op":"set_rate","vertex":2,"value":1},`, 20) + `{"op":"set_rate","vertex":2,"value":1}]}`
	for _, c := range []struct {
		method, path, ctype, body string
		want                      int
	}{
		{"POST", "/v1/solve", "", `{"instance":` + string(inst) + `,"solver":"mg"}`, http.StatusRequestEntityTooLarge},
		{"POST", "/v1/solve", "", `{"instance":` + string(small) + `,"solver":"mg"}`, http.StatusOK},
		{"POST", "/v1/solve", "", `{"solver":"mg"}`, http.StatusBadRequest},
		{"POST", "/v1/bound", "", `{"instance":` + string(inst) + `}`, http.StatusRequestEntityTooLarge},
		{"POST", "/v1/batch", "", `{"topology":` + string(inst) + `,"solver":"mg"}`, http.StatusRequestEntityTooLarge},
		{"POST", "/v1/campaign", "", `{"config":{` + pad + `}}`, http.StatusRequestEntityTooLarge},
		{"POST", "/v1/generate", "", `{"config":{` + pad + `}}`, http.StatusRequestEntityTooLarge},
		{"POST", "/v1/instances", "", `{"instance":` + string(inst) + `,"solver":"mg"}`, http.StatusRequestEntityTooLarge},
		{"POST", "/v1/instances", "application/x-ndjson", ndjson.String(), http.StatusRequestEntityTooLarge},
		{"PATCH", "/v1/instances/" + sess.ID, "", ops, http.StatusRequestEntityTooLarge},
		{"PATCH", "/v1/instances/" + sess.ID, "", `{"ops":[{"op":"set_rate","vertex":2,"value":1}]}`, http.StatusOK},
	} {
		rec := serve(c.method, c.path, c.ctype, c.body)
		if rec.Code != c.want {
			t.Errorf("%s %s (%d bytes): status %d, want %d: %.200s", c.method, c.path, len(c.body), rec.Code, c.want, rec.Body.Bytes())
		}
		if c.want == http.StatusRequestEntityTooLarge && !strings.Contains(rec.Body.String(), "too large") {
			t.Errorf("%s %s: 413 body %q does not name the limit", c.method, c.path, rec.Body.String())
		}
	}
}

// stallReader sends its bytes, then stalls: it records how much buffer
// the reader offers while waiting for the rest, and fails.
type stallReader struct {
	data    []byte
	offered int
}

func (r *stallReader) Read(p []byte) (int, error) {
	if len(r.data) > 0 {
		n := copy(p, r.data)
		r.data = r.data[n:]
		return n, nil
	}
	r.offered = len(p)
	return 0, io.ErrUnexpectedEOF
}

// TestReadBodyDeclaredLengthNotTrusted checks that a body declaring
// nearly the whole body limit but sending a few bytes holds a buffer
// sized by maxBodyPresize, not by its Content-Length.
func TestReadBodyDeclaredLengthNotTrusted(t *testing.T) {
	a := newAPI(newTestEngine(t, EngineOptions{Workers: 1}), HandlerOptions{})
	sent := []byte(`{"instance":`)
	body := &stallReader{data: sent}
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", body)
	req.ContentLength = a.maxBody - 1
	runtime.GC() // empty bodyBufs, so the buffer below is a fresh one
	runtime.GC()
	if _, err := a.readBody(httptest.NewRecorder(), req); err == nil {
		t.Fatal("stalled body read without error")
	}
	if held := len(sent) + body.offered; held > 2*maxBodyPresize {
		t.Errorf("%d bytes sent of %d declared: buffer holds %d bytes, want ≤ %d",
			len(sent), req.ContentLength, held, 2*maxBodyPresize)
	}
}
