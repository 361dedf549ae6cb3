package workload

import "testing"

// FuzzWorkloadSpec feeds the spec parser arbitrary strings: it must
// never panic, and anything it accepts must render a canonical form
// that reparses to the identical spec (the grammar's round-trip
// contract). Run in CI's fuzz job alongside the matrix and request
// decoders.
func FuzzWorkloadSpec(f *testing.F) {
	for _, s := range allSpecs {
		f.Add(s)
	}
	f.Add("dregular:8:4096")
	f.Add("random:8:4096")
	f.Add("uniform:4:1024:")
	f.Add("halo:8x:512")
	f.Add("stencil3d:4x4x4x4:64")
	f.Add("hotspot:-1:-1:-1")
	f.Add("uniform:99999999999999999999:1")
	f.Add(":::")
	f.Add("")
	f.Add("perm:\x00")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s) // must not panic
		if err != nil {
			return
		}
		canon := sp.String()
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("accepted %q but canonical form %q rejected: %v", s, canon, err)
		}
		if back != sp {
			t.Fatalf("canonical form %q reparses to %+v, not %+v", canon, back, sp)
		}
	})
}
