package nn

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/faultinject"
)

// fpLoadCorrupt simulates a corrupt model file at the deserialization
// boundary (chaos tests; no-op unless armed via faultinject).
var fpLoadCorrupt = faultinject.New("nn.load.corrupt")

// paramFile is the on-disk JSON schema for a parameter set.
type paramFile struct {
	Params []paramEntry `json:"params"`
}

type paramEntry struct {
	Name string    `json:"name"`
	R    int       `json:"r"`
	C    int       `json:"c"`
	W    []float64 `json:"w"`
}

// SaveParams serializes parameters (weights only; optimizer state is
// not persisted) as JSON.
func SaveParams(w io.Writer, params []*Param) error {
	f := paramFile{Params: make([]paramEntry, len(params))}
	for i, p := range params {
		f.Params[i] = paramEntry{Name: p.Name, R: p.W.R, C: p.W.C, W: p.W.W}
	}
	if err := json.NewEncoder(w).Encode(f); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	return nil
}

// LoadParams restores weights written by SaveParams into the given
// parameters, matching by name: ReadParams then Apply.
func LoadParams(r io.Reader, params []*Param) error {
	f, err := ReadParams(r)
	if err != nil {
		return err
	}
	return f.Apply(params)
}

// ParamFile is a decoded, validated parameter file: every tensor's
// weight count matches its declared shape and every weight is finite.
type ParamFile struct {
	byName map[string]paramEntry
}

// ReadParams decodes a file written by SaveParams and validates it
// before any destination parameter is touched: truncated files,
// tensors whose weight count disagrees with their declared shape, and
// tensors containing NaN or ±Inf are all rejected with a descriptive
// error — a model that loads is a model whose every weight is finite,
// so corruption surfaces here instead of as NaN scores (or panics)
// mid-match.
func ReadParams(r io.Reader) (*ParamFile, error) {
	var f paramFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("nn: load params: truncated file: %w", err)
		}
		return nil, fmt.Errorf("nn: load params: %w", err)
	}
	byName := make(map[string]paramEntry, len(f.Params))
	for _, e := range f.Params {
		if err := checkEntry(e); err != nil {
			return nil, err
		}
		byName[e.Name] = e
	}
	return &ParamFile{byName: byName}, nil
}

// Shape returns the declared shape of the named tensor, so a caller
// can size the destination model from the file.
func (f *ParamFile) Shape(name string) (r, c int, ok bool) {
	e, ok := f.byName[name]
	return e.R, e.C, ok
}

// Apply copies the file's weights into params. Every parameter must be
// found with the same shape; extra entries in the file are ignored.
func (f *ParamFile) Apply(params []*Param) error {
	if fpLoadCorrupt.Fail() {
		return fmt.Errorf("nn: load params: fault injected: %s", fpLoadCorrupt.Name())
	}
	// Validate every destination before writing any, so a bad file
	// cannot leave a model half-loaded.
	for _, p := range params {
		e, ok := f.byName[p.Name]
		if !ok {
			return fmt.Errorf("nn: load params: %q not in file", p.Name)
		}
		if e.R != p.W.R || e.C != p.W.C {
			return fmt.Errorf("nn: load params: %q shape %d×%d, file has %d×%d",
				p.Name, p.W.R, p.W.C, e.R, e.C)
		}
	}
	for _, p := range params {
		copy(p.W.W, f.byName[p.Name].W)
	}
	return nil
}

// checkEntry validates one decoded tensor: the weight count must match
// the declared shape (a mismatch means a truncated or hand-edited
// file) and every weight must be finite (standard JSON cannot encode
// NaN/Inf, but writers in other formats and future binary schemas can;
// the invariant "a loaded model has only finite weights" is enforced
// here regardless of the wire format).
func checkEntry(e paramEntry) error {
	if len(e.W) != e.R*e.C {
		return fmt.Errorf("nn: load params: %q has %d weights for declared shape %d×%d (truncated or corrupt file)",
			e.Name, len(e.W), e.R, e.C)
	}
	for i, w := range e.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("nn: load params: %q weight %d is %v (corrupt file)", e.Name, i, w)
		}
	}
	return nil
}
