package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tree"
)

// referenceInstance is the plain encoding/json instance decode the
// single-pass Scanner must agree with.
func referenceInstance(data []byte) (*Instance, error) {
	var ji jsonInstance
	if err := json.Unmarshal(data, &ji); err != nil {
		return nil, err
	}
	t, err := tree.FromParents(ji.Parents, ji.IsClient)
	if err != nil {
		return nil, err
	}
	in := &Instance{Tree: t, R: ji.R, W: ji.W, S: ji.S, Q: ji.Q, Comm: ji.Comm, BW: ji.BW}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// instanceSeeds are inputs at the edges of the Scanner's subset: each
// must decline (or decode identically) and leave the verdict to
// encoding/json.
var instanceSeeds = []string{
	`{"parents":[-1,0],"is_client":[false,true],"requests":[0,3],"capacities":[5,0],"storage_costs":[1,0]}`,
	`{"parents":[0],"is_client":[false]}`,
	`{"parents":[-1],"is_client":[true]}`,
	`{"parents":[-1,0,0],"is_client":[false,true,true],"requests":[0,1,2],"capacities":[9,0,0],"storage_costs":[1,0,0],"qos":[-1,1,2],"bandwidth":[-1,5,5]}`,
	`{"Parents":[-1,0],"is_client":[false,true],"requests":[0,3],"capacities":[5,0],"storage_costs":[1,0]}`,
	`{"parents":[-1,0],"parents":[-1,0],"is_client":[false,true],"requests":[0,3],"capacities":[5,0],"storage_costs":[1,0]}`,
	`{"parents":[-1,0],"is_client":[false,true],"requests":[0,3],"capacities":[5,0],"storage_costs":[1,0],"qos":null,"comm":null}`,
	`{"parents":[-1,-0],"is_client":[false,true],"requests":[-0,3],"capacities":[5,0],"storage_costs":[1,0]}`,
	`{"parents":[-1,0],"is_client":[false,true],"requests":[0,1e2],"capacities":[500,0],"storage_costs":[1,0]}`,
	`{"parents":[-1,0],"is_client":[false,true],"requests":[0,3.0],"capacities":[5,0],"storage_costs":[1,0]}`,
	`{"parents":[-1,0],"is_client":[false,true],"requests":[0,1234567890123456789],"capacities":[5,0],"storage_costs":[1,0]}`,
	`{"parents":[-1,0],"is_client":[false,true],"requests":[0,123456789012345678],"capacities":[5,0],"storage_costs":[1,0]}`,
	`{"parents":[-1,0],"is_client":[false,true],"requests":[1,null],"capacities":[5,0],"storage_costs":[1,0]}`,
	`{"parents":[-1,0],"is_client":[false,true],"requests":[0,3],"capacities":[5,0],"storage_costs":[1,0],"extra":{"nested":[1,{"deep":true}]}}`,
	`{"parents":[-1,0],"is_client":[false,true],"requests":[0,3],"capacities":[5,0],"storage_costs":[1,0]} trailing`,
	`{"parents":[-1,0],"is_client":[false,true],"requests":[0,3],"capacities":[5,0],"storage_costs":[1,0],"qos":[]}`,
	`{"par\u0065nts":[-1,0],"is_client":[false,true],"requests":[0,3],"capacities":[5,0],"storage_costs":[1,0]}`,
	` { "parents" : [ -1 , 0 ] , "is_client" : [ false , true ] , "requests" : [ 0 , 3 ] , "capacities" : [ 5 , 0 ] , "storage_costs" : [ 1 , 0 ] } `,
	`{"parents":[-1,01],"is_client":[false,true],"requests":[0,3],"capacities":[5,0],"storage_costs":[1,0]}`,
	`{"parents":[-1,0],"is_client":[false,tru],"requests":[0,3],"capacities":[5,0],"storage_costs":[1,0]}`,
	`null`,
	`{}`,
	`[]`,
	`{`,
}

// FuzzReadInstance checks that arbitrary bytes never panic the instance
// decoder and that everything it accepts passes full validation (so a
// decoded instance is always safe to hand to the solvers). It is also a
// differential test of the single-pass Scanner: Instance.UnmarshalJSON
// must accept and reject exactly what the plain encoding/json decode
// does, with the same error text, and decode to a deeply equal instance
// (nil and empty vectors distinguished); whatever the Scanner accepts on
// its own must match too. Run with
// `go test -fuzz=FuzzReadInstance ./internal/core` for live fuzzing; the
// seed corpus runs under plain `go test`.
func FuzzReadInstance(f *testing.F) {
	valid, err := json.Marshal(Figure1('a'))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	for _, seed := range instanceSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		data := []byte(src)
		want, wantErr := referenceInstance(data)
		var got Instance
		gotErr := got.UnmarshalJSON(data)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("UnmarshalJSON err %v, reference err %v\ninput: %s", gotErr, wantErr, src)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("UnmarshalJSON err %q, reference err %q\ninput: %s", gotErr, wantErr, src)
		case gotErr == nil && !reflect.DeepEqual(&got, want):
			t.Fatalf("UnmarshalJSON decoded %+v, reference %+v\ninput: %s", got, *want, src)
		}
		s := NewScanner(data)
		if fast := s.Instance(); fast != nil && s.End() && !reflect.DeepEqual(fast, want) {
			t.Fatalf("Scanner accepted %+v, reference %+v (err %v)\ninput: %s", *fast, want, wantErr, src)
		}

		in, err := ReadInstance(strings.NewReader(src))
		if err != nil {
			return
		}
		if verr := in.Validate(); verr != nil {
			t.Fatalf("decoder accepted an invalid instance: %v\ninput: %s", verr, src)
		}
		// Round-trip stability: encode and decode again.
		data, err = json.Marshal(in)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadInstance(strings.NewReader(string(data)))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !reflect.DeepEqual(back, in) {
			t.Fatalf("round trip changed the instance\ninput: %s", src)
		}
	})
}

// FuzzSolutionDecode checks the solution decoder likewise.
func FuzzSolutionDecode(f *testing.F) {
	sol := NewSolution(3)
	sol.AddPortion(2, 0, 5)
	valid, err := json.Marshal(sol)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	f.Add(`{"vertices":2,"assign":[{"client":1,"portions":[{"Server":0,"Load":1}]}]}`)
	f.Add(`{"vertices":-1}`)
	f.Add(`null`)
	f.Fuzz(func(t *testing.T, src string) {
		var s Solution
		if err := json.Unmarshal([]byte(src), &s); err != nil {
			return
		}
		// Accepted solutions must be structurally sound: replica ids in
		// range, positive portions.
		for _, r := range s.Replicas() {
			if r < 0 || r >= len(s.Assign) {
				t.Fatalf("replica %d out of range after decode: %s", r, src)
			}
		}
		for _, ps := range s.Assign {
			for _, p := range ps {
				if p.Load <= 0 {
					t.Fatalf("non-positive portion after decode: %s", src)
				}
			}
		}
	})
}
