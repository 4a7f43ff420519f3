package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBuildGraphNames traces each topology the usage line names, and
// rejects an unknown one.
func TestBuildGraphNames(t *testing.T) {
	for _, name := range []string{"path", "cycle", "grid", "star"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-graph=" + name, "-n=9"}, &out, &errb); code != 0 || out.Len() == 0 {
			t.Errorf("%s: exit %d, %d bytes of output\nstderr:\n%s", name, code, out.Len(), errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-graph=nope"}, &out, &errb); code != 1 || !strings.Contains(errb.String(), `unknown generator "nope"`) {
		t.Fatalf("unknown graph: exit %d\nstderr:\n%s", code, errb.String())
	}
}

// TestBadInvocationExitStatus: a size below a generator's floor is
// graph.Build's error, reported on stderr with exit status 1, as an
// unknown algorithm is; a bad flag exits 2.
func TestBadInvocationExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-graph=cycle", "-n=2"}, 1, `graph: generator "cycle" needs n >= 3, got 2`},
		{[]string{"-graph=star", "-n=1"}, 1, `graph: generator "star" needs n >= 2, got 1`},
		{[]string{"-algo=nope"}, 1, `unknown algorithm "nope"`},
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: exit %d, want %d with %q\nstderr:\n%s", tc.args, code, tc.code, tc.want, errb.String())
		}
	}
}
