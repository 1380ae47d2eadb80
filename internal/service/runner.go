package service

import "encoding/json"

// Execute runs the experiment named by spec to completion and returns
// its stable JSON encoding. It is a pure function of the spec and is
// shared by the engine, the ciaoserve handlers and ciaosim -json. A
// grid figure runs its cells through an engine of its own, which ends
// with the call, so nothing is cached across calls.
func Execute(spec Spec) ([]byte, error) {
	exp, err := spec.experiment()
	if err != nil {
		return nil, err
	}
	if exp.Grid {
		payload, _, err := NewEngine(Config{}).Run(spec)
		return payload, err
	}
	return encode(exp.Build(spec.request(), nil))
}

// Payload validates spec and builds its payload: the typed result that
// Execute encodes and ciaosim also renders as text. A grid figure runs
// its cells through e; every other experiment simulates in the call.
func (e *Engine) Payload(spec Spec) (any, error) {
	exp, err := spec.experiment()
	if err != nil {
		return nil, err
	}
	return exp.Build(spec.request(), e.CellRunner(spec.Options))
}

func encode(payload any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return json.Marshal(payload)
}
