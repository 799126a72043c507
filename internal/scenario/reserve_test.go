package scenario

import (
	"reflect"
	"strings"
	"testing"
)

// reservedSpec mixes a reserved share into the small scenario.
func reservedSpec(share float64) Spec {
	spec := smallSpec()
	spec.Name = "small-reserved"
	spec.Reservations = &ReservationSpec{Share: share, Lead: 200, Duration: 60, Nodes: 2, Parts: 1}
	return spec
}

func TestReservedScenarioRun(t *testing.T) {
	res, err := Run(reservedSpec(0.15), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResvRequested == 0 {
		t.Fatal("a 15% share over 120 requests reserved nothing")
	}
	if res.ResvConfirmed+res.ResvRejected != res.ResvRequested {
		t.Fatalf("admission accounting: %d requested, %d confirmed, %d rejected",
			res.ResvRequested, res.ResvConfirmed, res.ResvRejected)
	}
	if res.ResvConfirmed > 0 {
		if res.GuaranteeHitRate < 0 || res.GuaranteeHitRate > 1 {
			t.Fatalf("guarantee hit rate %v outside [0,1]", res.GuaranteeHitRate)
		}
		if res.ResvParts < res.ResvConfirmed {
			t.Fatalf("%d parts for %d confirmed reservations", res.ResvParts, res.ResvConfirmed)
		}
	}
	if !res.AuditOK {
		t.Fatalf("audit failed:\n%s", res.AuditSummary)
	}
	out := FormatResult(res)
	if !strings.Contains(out, "reservations:") || !strings.Contains(out, "best-effort class:") {
		t.Fatalf("formatted result omits the reservation lines:\n%s", out)
	}
}

// TestReservationShareZeroByteIdentical pins the byte-identity contract
// at the scenario layer: a spec carrying a reservation section with a
// zero share runs exactly as a spec that has never heard of
// reservations.
func TestReservationShareZeroByteIdentical(t *testing.T) {
	plain, err := Run(smallSpec(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := Run(reservedSpec(0), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, z := stripHost(plain), stripHost(zero)
	p.Name, z.Name = "", ""
	if !reflect.DeepEqual(p, z) {
		t.Fatalf("a zero reservation share changed the run:\nplain: %+v\nzero:  %+v", p, z)
	}
}

// TestReservedScenarioDeterministic demands identical results across
// repeated runs of a mixed reserved workload.
func TestReservedScenarioDeterministic(t *testing.T) {
	runTwice(t, reservedSpec(0.2))
}

func TestReservationSpecValidation(t *testing.T) {
	bad := reservedSpec(1.5)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "share") {
		t.Fatalf("share 1.5 accepted: %v", err)
	}
	noAgents := reservedSpec(0.2)
	f := false
	noAgents.UseAgents = &f
	if err := noAgents.Validate(); err == nil || !strings.Contains(err.Error(), "use_agents") {
		t.Fatalf("reservations without agents accepted: %v", err)
	}
	neg := reservedSpec(0.2)
	neg.Reservations.Duration = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative reservation duration accepted")
	}
}
