package pn

import (
	"errors"
	"math"
	"testing"
)

func TestPreferredPairsAreThreeValued(t *testing.T) {
	for _, deg := range []uint{5, 6, 7, 9} {
		pa, pb, err := PreferredPair(deg)
		if err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
		u, err := MSequence(deg, pa, 1)
		if err != nil {
			t.Fatalf("degree %d seq u: %v", deg, err)
		}
		v, err := MSequence(deg, pb, 1)
		if err != nil {
			t.Fatalf("degree %d seq v: %v", deg, err)
		}
		ok, err := IsThreeValued(u, v, deg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("degree %d: pair is not preferred (cross-correlation not three-valued)", deg)
		}
	}
}

func TestPreferredPairUnknownDegree(t *testing.T) {
	if _, _, err := PreferredPair(8); err == nil {
		t.Fatal("degree 8 (divisible by 4) must have no preferred pair")
	}
}

func TestGoldFamilySizeAndLength(t *testing.T) {
	fam, err := GoldFamily(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(fam) != 33 { // 2^5 + 1
		t.Errorf("family size %d, want 33", len(fam))
	}
	for i, seq := range fam {
		if len(seq) != 31 {
			t.Errorf("member %d length %d, want 31", i, len(seq))
		}
	}
}

func TestGoldFamilyPairwiseCrossCorrelationBound(t *testing.T) {
	// Every pair in a degree-5 Gold family has |cross| ≤ t(5) = 9.
	fam, err := GoldFamily(5)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 9
	for i := 0; i < len(fam); i++ {
		for j := i + 1; j < len(fam); j++ {
			cc, err := PeriodicCrossCorrelation(fam[i], fam[j])
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range cc {
				if v > bound || v < -bound {
					t.Fatalf("pair (%d,%d) lag %d: cross %d exceeds ±%d", i, j, k, v, bound)
				}
			}
		}
	}
}

func TestNewGoldSetBasics(t *testing.T) {
	s, err := NewGoldSet(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.ChipLength() != 31 {
		t.Errorf("chip length %d, want 31", s.ChipLength())
	}
	for _, c := range s.Codes {
		// Zero sequence must be the full negation for Gold codes.
		for i := range c.One {
			if c.One[i] == c.Zero[i] {
				t.Fatalf("code %d chip %d: zero is not the negation", c.ID, i)
			}
		}
	}
}

func TestNewGoldSetTooMany(t *testing.T) {
	if _, err := NewGoldSet(5, 100); err == nil {
		t.Fatal("requesting more codes than the family holds must fail")
	}
}

func TestNewGoldSetUnknownDegree(t *testing.T) {
	if _, err := NewGoldSet(8, 4); err == nil {
		t.Fatal("degree without preferred pair must fail")
	}
}

// Capacity must predict NewSet exactly: the full family builds, one more
// user fails with ErrFamilySize, and an unsupported degree fails in both.
func TestCapacityMatchesNewSet(t *testing.T) {
	for _, f := range []Family{FamilyGold, FamilyKasami} {
		for deg := uint(0); deg <= 12; deg++ {
			capacity, err := Capacity(f, deg)
			if err != nil {
				if _, serr := NewSet(f, 1, deg); serr == nil {
					t.Errorf("%v degree %d: Capacity fails (%v) but NewSet builds", f, deg, err)
				}
				continue
			}
			if _, err := NewSet(f, capacity, deg); err != nil {
				t.Errorf("%v degree %d: NewSet(%d) = %v, want the full family", f, deg, capacity, err)
			}
			if _, err := NewSet(f, capacity+1, deg); !errors.Is(err, ErrFamilySize) {
				t.Errorf("%v degree %d: NewSet(%d) = %v, want ErrFamilySize", f, deg, capacity+1, err)
			}
		}
	}
	for _, f := range []Family{Family2NC, FamilyWalsh} {
		if capacity, err := Capacity(f, 0); err != nil || capacity != math.MaxInt {
			t.Errorf("%v: Capacity = %d, %v; want unbounded", f, capacity, err)
		}
	}
	if _, err := Capacity(Family(99), 5); err == nil {
		t.Error("unknown family: Capacity succeeded")
	}
}

func Test2NCSetStructure(t *testing.T) {
	const n = 5
	s, err := New2NCSet(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.ChipLength() != 2*n {
		t.Errorf("chip length %d, want %d", s.ChipLength(), 2*n)
	}
	for i, c := range s.Codes {
		if c.OnesWeight() != 1 {
			t.Errorf("code %d weight %d, want 1", i, c.OnesWeight())
		}
		if c.One[2*i] != 1 {
			t.Errorf("code %d: bit-one chip not at slot position %d", i, 2*i)
		}
		if c.Zero[2*i+1] != 1 {
			t.Errorf("code %d: bit-zero chip not at slot position %d", i, 2*i+1)
		}
	}
}

func Test2NCDisjointSupport(t *testing.T) {
	s, err := New2NCSet(6)
	if err != nil {
		t.Fatal(err)
	}
	// Across users, the union of One and Zero supports must not overlap.
	for i := 0; i < s.Size(); i++ {
		for j := i + 1; j < s.Size(); j++ {
			a, b := s.Codes[i], s.Codes[j]
			for k := 0; k < a.Length(); k++ {
				ai := a.One[k] | a.Zero[k]
				bj := b.One[k] | b.Zero[k]
				if ai == 1 && bj == 1 {
					t.Fatalf("codes %d and %d share chip %d", i, j, k)
				}
			}
		}
	}
}

func Test2NCZeroIsSlotNegationOfOne(t *testing.T) {
	s, err := New2NCSet(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range s.Codes {
		// Within the owner's slot the patterns are [1 0] vs [0 1].
		if c.One[2*i] != 1 || c.One[2*i+1] != 0 ||
			c.Zero[2*i] != 0 || c.Zero[2*i+1] != 1 {
			t.Errorf("code %d slot patterns wrong: one=%v zero=%v", i, c.One, c.Zero)
		}
	}
}

func TestWalshSetOrthogonality(t *testing.T) {
	s, err := NewWalshSet(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Chip-aligned bipolar cross-correlation at lag 0 must be exactly 0.
	for i := 0; i < s.Size(); i++ {
		bi := bipolar(s.Codes[i].One)
		for j := i + 1; j < s.Size(); j++ {
			bj := bipolar(s.Codes[j].One)
			var dot float64
			for k := range bi {
				dot += bi[k] * bj[k]
			}
			if dot != 0 {
				t.Fatalf("codes %d,%d: lag-0 dot %v, want 0", i, j, dot)
			}
		}
	}
}

func TestWalshSetSkipsConstantRow(t *testing.T) {
	s, err := NewWalshSet(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range s.Codes {
		first := c.One[0]
		constant := true
		for _, b := range c.One {
			if b != first {
				constant = false
				break
			}
		}
		if constant {
			t.Errorf("code %d is constant — row 0 must be skipped", i)
		}
	}
}

func TestKasamiFamilyProperties(t *testing.T) {
	fam, err := KasamiFamily(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(fam) != 8 { // 2^(6/2)
		t.Errorf("family size %d, want 8", len(fam))
	}
	// Small-set Kasami max |cross| is 2^(n/2)+1 = 9 for n=6.
	const bound = 9
	for i := 0; i < len(fam); i++ {
		for j := i + 1; j < len(fam); j++ {
			cc, err := PeriodicCrossCorrelation(fam[i], fam[j])
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range cc {
				if v > bound || v < -bound {
					t.Fatalf("pair (%d,%d): cross %d exceeds ±%d", i, j, v, bound)
				}
			}
		}
	}
}

func TestKasamiOddDegreeRoundsUp(t *testing.T) {
	s, err := NewKasamiSet(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.ChipLength() != 63 { // degree rounded to 6 → 2^6−1
		t.Errorf("chip length %d, want 63", s.ChipLength())
	}
}

func TestKasamiTooMany(t *testing.T) {
	if _, err := NewKasamiSet(6, 100); err == nil {
		t.Fatal("want family-size error")
	}
}

func TestKasamiFamilyOddDegreeRejected(t *testing.T) {
	if _, err := KasamiFamily(5); err == nil {
		t.Fatal("odd degree must be rejected by KasamiFamily")
	}
}

func TestProfileOrdering2NCBeatsGoldAligned(t *testing.T) {
	// The paper's Fig. 9(b) rationale: 2NC codes are "more orthogonal".
	// Chip-aligned, 2NC's disjoint support gives exactly zero leakage while
	// Gold codes leak a fraction of the victim's auto response.
	gold, err := NewGoldSet(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	twoNC, err := New2NCSet(5)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := Profile(gold, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Profile(twoNC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2.MaxCross != 0 {
		t.Errorf("aligned 2NC max cross = %v, want 0", p2.MaxCross)
	}
	if pg.MaxCross <= 0 {
		t.Errorf("aligned Gold max cross = %v, want > 0", pg.MaxCross)
	}
}

func TestProfile2NCDegradesWhenAsync(t *testing.T) {
	// Fully asynchronous, a 2NC interferer can land inside the victim's
	// slot and mimic a full bit — the flip side of sparse codes, and the
	// reason the paper needs its correlation-based detector (§I challenge 1).
	twoNC, err := New2NCSet(5)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Profile(twoNC, -1)
	if err != nil {
		t.Fatal(err)
	}
	if full.MaxCross < 1 {
		t.Errorf("async 2NC max cross = %v, want ≥ 1", full.MaxCross)
	}
}

func TestCrossResponseSelfAlignedIsOne(t *testing.T) {
	s, err := NewGoldSet(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CrossResponse(s.Codes[1], s.Codes[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("self response = %v, want 1", got)
	}
}

func TestCrossResponseLengthMismatch(t *testing.T) {
	g, _ := NewGoldSet(5, 1)
	w, _ := New2NCSet(3)
	if _, err := CrossResponse(g.Codes[0], w.Codes[0], 0); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestProfileGoldBound(t *testing.T) {
	s, err := NewGoldSet(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Profile(s, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Unipolar leakage for Gold-31: |2·overlap − weight| / weight with the
	// three-valued overlap set; stays well below 1.
	if p.MaxCross >= 1 {
		t.Errorf("Gold-31 profile max cross %v, want < 1", p.MaxCross)
	}
	if p.MeanCross <= 0 {
		t.Error("mean cross must be positive")
	}
	if p.MaxAutoSidelobe <= 0 {
		t.Error("auto sidelobe must be positive for Gold codes")
	}
}

func TestProfileInvalidSet(t *testing.T) {
	if _, err := Profile(&Set{}, 0); err == nil {
		t.Fatal("profiling an invalid set must fail")
	}
}

func TestBalanceEmpty(t *testing.T) {
	if got := Balance(nil); got != 0 {
		t.Errorf("Balance(nil) = %d", got)
	}
}

func TestRunLengthCountsEmpty(t *testing.T) {
	if got := RunLengthCounts(nil); len(got) != 0 {
		t.Errorf("RunLengthCounts(nil) = %v", got)
	}
}

func TestPeriodicCrossCorrelationMismatch(t *testing.T) {
	if _, err := PeriodicCrossCorrelation([]byte{1}, []byte{1, 0}); err == nil {
		t.Fatal("length mismatch must fail")
	}
}
