package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestCharondHelpExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("charond -h exited %d, want 0 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "Usage of charond") {
		t.Fatalf("no usage text:\n%s", errb.String())
	}
}

func TestCharondBadFlagExitsTwo(t *testing.T) {
	var out, errb bytes.Buffer
	if code := Main([]string{"-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func jsonDecode(r io.Reader, v any) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%w in %q", err, raw)
	}
	return nil
}
