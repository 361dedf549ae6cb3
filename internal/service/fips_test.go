// The FIPS 140-only mode this test runs under exists from Go 1.24 on;
// older toolchains ignore the setting and build GCM as usual.
//
//go:build go1.24

package service

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestNewServerFailsWithoutGCM: under GODEBUG=fips140=only, Go refuses
// GCM with a caller-chosen nonce, so NewServer cannot build its
// body-key MAC. It must say so with an error, not panic. The mode is
// fixed at process start, so the test runs itself again in a child.
func TestNewServerFailsWithoutGCM(t *testing.T) {
	if os.Getenv("UNSCHED_FIPS_CHILD") == "1" {
		if svc, err := NewServer(Options{Workers: 1}); err == nil {
			svc.Close()
			t.Fatal("NewServer built a server under fips140=only")
		} else {
			t.Log(err)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNewServerFailsWithoutGCM$", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=fips140=only", "UNSCHED_FIPS_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "service: body-key MAC:") {
		t.Fatalf("child: %v\n%s", err, out)
	}
}
