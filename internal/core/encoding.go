package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/tree"
)

// jsonInstance is the wire format of an Instance.
type jsonInstance struct {
	Parents  []int   `json:"parents"`
	IsClient []bool  `json:"is_client"`
	R        []int64 `json:"requests"`
	W        []int64 `json:"capacities"`
	S        []int64 `json:"storage_costs"`
	Q        []int   `json:"qos,omitempty"`
	Comm     []int64 `json:"comm,omitempty"`
	BW       []int64 `json:"bandwidth,omitempty"`
}

// MarshalJSON encodes the instance, embedding the tree shape.
func (in *Instance) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonInstance{
		Parents:  in.Tree.Parents(),
		IsClient: in.Tree.ClientFlags(),
		R:        in.R,
		W:        in.W,
		S:        in.S,
		Q:        in.Q,
		Comm:     in.Comm,
		BW:       in.BW,
	})
}

// UnmarshalJSON decodes and fully validates an instance. The common
// shape goes through a single-pass Scanner; anything it declines —
// including every invalid instance — is decoded by encoding/json, which
// owns the error texts.
func (in *Instance) UnmarshalJSON(data []byte) error {
	s := NewScanner(data)
	if ni := s.Instance(); ni != nil && s.End() {
		*in = *ni
		return nil
	}
	var ji jsonInstance
	if err := json.Unmarshal(data, &ji); err != nil {
		return err
	}
	t, err := tree.FromParents(ji.Parents, ji.IsClient)
	if err != nil {
		return err
	}
	ni := &Instance{Tree: t, R: ji.R, W: ji.W, S: ji.S, Q: ji.Q, Comm: ji.Comm, BW: ji.BW}
	if err := ni.Validate(); err != nil {
		return err
	}
	*in = *ni
	return nil
}

// WriteTo writes the instance as indented JSON.
func (in *Instance) WriteTo(w io.Writer) (int64, error) {
	data, err := json.MarshalIndent(in, "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// ReadInstance decodes a JSON instance from r.
func ReadInstance(r io.Reader) (*Instance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	in := new(Instance)
	if err := json.Unmarshal(data, in); err != nil {
		return nil, fmt.Errorf("core: decoding instance: %w", err)
	}
	return in, nil
}
