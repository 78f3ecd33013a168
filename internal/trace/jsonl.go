package trace

// JSONL export: one JSON object per line, the journal artifact format.
// Events round-trip exactly — WriteJSONL then ReadJSONL reproduces the
// slice — which `make trace-smoke` and the experiments' audit tests
// assert by re-reading every artifact they write.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// WriteJSONL writes events as newline-delimited JSON.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("trace: encoding event %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// ReadJSONL parses a journal written by WriteJSONL back into typed
// events.
func ReadJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var ev Event
		err := dec.Decode(&ev)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: decoding event %d: %w", len(out), err)
		}
		out = append(out, ev)
	}
}
