package agent

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/pace"
	"repro/internal/reserve"
	"repro/internal/scheduler"
)

// wireErr stands in for transport.ExchangeError: an error that can say
// whether the peer answered.
type wireErr struct{ answered bool }

func (e wireErr) Error() string      { return fmt.Sprintf("wire error (answered=%v)", e.answered) }
func (e wireErr) PeerAnswered() bool { return e.answered }

// brokenPeer is a reservation-capable neighbour whose every exchange
// fails with err.
type brokenPeer struct {
	name string
	err  error
}

func (p *brokenPeer) PeerName() string { return p.name }
func (p *brokenPeer) PullService() (scheduler.ServiceInfo, error) {
	return scheduler.ServiceInfo{}, p.err
}
func (p *brokenPeer) Handle(Request, float64) (Dispatch, error) { return Dispatch{}, p.err }
func (p *brokenPeer) SubmitDirect(Request, float64) (Dispatch, error) {
	return Dispatch{}, p.err
}
func (p *brokenPeer) HandleReserve(ReserveOp, float64) (ReserveReply, error) {
	return ReserveReply{}, p.err
}

// TestRoutedReserveAsksTheErrorWhoAnswered pins the three-way rule a
// routed reservation op applies to a neighbour's error, without a socket:
// "no answer" is one more dead end (breaker failure, next neighbour),
// "answered" is the target's refusal (breaker success, returned), and an
// error that says neither — every in-process peer — is returned with the
// breaker untouched, as it always was.
func TestRoutedReserveAsksTheErrorWhoAnswered(t *testing.T) {
	plain := errors.New("overlap")
	cases := []struct {
		name      string
		err       error
		wantErr   error // nil: the op must route on and succeed
		wantFails int   // bad's consecutive-failure count afterwards, from 1
	}{
		{"no answer", fmt.Errorf("call: %w", wireErr{answered: false}), nil, 2},
		{"answered", fmt.Errorf("call: %w", wireErr{answered: true}), wireErr{answered: true}, 0},
		{"unknown", plain, plain, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := pace.NewEngine()
			origin := newAgent(t, "origin", pace.SGIOrigin2000, 4, e)
			target := newAgent(t, "target", pace.SGIOrigin2000, 4, e)
			// bad is tried first: neighbours are walked in wiring order.
			if err := origin.AddLower(&brokenPeer{name: "bad", err: c.err}); err != nil {
				t.Fatal(err)
			}
			if err := Link(origin, target); err != nil {
				t.Fatal(err)
			}
			origin.RecordPeerFailure("bad")

			_, err := origin.HandleReserve(ReserveOp{
				Action: ReserveHoldOp, ResvID: 9, Holder: "u@g", Resource: "target",
				Mask: 0b0011, Start: 100, End: 200, TTL: 30,
			}, 0)
			if c.wantErr == nil {
				if err != nil {
					t.Fatalf("hold did not route past the dead neighbour: %v", err)
				}
				if b, ok := target.Local().Book().Get(9); !ok || b.State != reserve.Held {
					t.Fatalf("target booking %+v ok=%v, want held", b, ok)
				}
			} else if !errors.Is(err, c.wantErr) {
				t.Fatalf("err = %v, want %v returned to the caller", err, c.wantErr)
			}
			if got := origin.slotOf("bad").consecFails; got != c.wantFails {
				t.Fatalf("bad's failure streak = %d, want %d", got, c.wantFails)
			}
		})
	}
}

// TestAnsweredRefusalDoesNotTripBreaker: a forward the peer itself refused
// (a Busy or ErrorReply over the wire) still re-enters the fallback, but
// the live peer's circuit stays closed; the same refusal with no answer
// behind it trips it.
func TestAnsweredRefusalDoesNotTripBreaker(t *testing.T) {
	for _, answered := range []bool{true, false} {
		e := pace.NewEngine()
		slow := newAgent(t, "slow", pace.SunSPARCstation2, 16, e)
		slow.FailureThreshold = 1
		bad := &brokenPeer{name: "bad", err: wireErr{answered: answered}}
		if err := slow.SetUpper(bad); err != nil {
			t.Fatal(err)
		}
		fast := newLocal(t, "bad", pace.SGIOrigin2000, 16, e)
		if err := slow.PushAdvertisement("bad", fast.ServiceInfo(), 0); err != nil {
			t.Fatal(err)
		}
		d, err := slow.HandleRequest(Request{App: appOf(t, "sweep3d"), Env: "test", Deadline: 10}, 0)
		if err != nil || d.Resource != "slow" || !d.Fallback {
			t.Fatalf("answered=%v: dispatch %+v, %v; want fallback on slow", answered, d, err)
		}
		if tripped := slow.PeerTripped("bad"); tripped == answered {
			t.Fatalf("answered=%v: breaker tripped=%v", answered, tripped)
		}
	}
}
