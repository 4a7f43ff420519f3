package chaos

import (
	"fmt"
	"reflect"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/sensitivity"
	"repro/internal/trace"
)

// Config describes one chaos run. Zero-valued horizons get scaled
// defaults: AttackRounds = 2·n (the adversary's active window) and
// MaxRounds = AttackRounds + 4·n + 30 (recovery slack so 0-sensitive
// targets can reconverge before the final verdict).
type Config struct {
	Target    string
	Adversary string
	Graph     trace.GraphSpec
	Seed      int64
	Workers   int // ≤1 = serial rounds
	// MaxRounds bounds the run; AttackRounds bounds fault delivery.
	MaxRounds    int
	AttackRounds int
}

func (c Config) withDefaults(n0 int) Config {
	if c.AttackRounds <= 0 {
		c.AttackRounds = 2 * n0
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = c.AttackRounds + 4*n0 + 30
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// Run executes one chaos run: it builds the topology and target from the
// config, instantiates the named adversary, and returns the full decision
// trace. The returned log's Violation field is empty iff every live
// monitor and the final verdict passed; a non-nil error means the run
// could not even be set up.
func Run(cfg Config) (*trace.RunLog, error) {
	g, err := graph.Build(cfg.Graph.Gen, cfg.Graph.N, cfg.Graph.Seed)
	if err != nil {
		return nil, err
	}
	n0 := g.NumNodes()
	cfg = cfg.withDefaults(n0)
	adv, err := NewAdversary(cfg.Adversary, g, n0, cfg.AttackRounds, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return execute(cfg, g, adv)
}

// Execute runs a config under an explicit adversary (replay and shrinking
// construct Static adversaries over recorded event lists).
func Execute(cfg Config, adv Adversary) (*trace.RunLog, error) {
	g, err := graph.Build(cfg.Graph.Gen, cfg.Graph.N, cfg.Graph.Seed)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(g.NumNodes())
	return execute(cfg, g, adv)
}

func execute(cfg Config, g *graph.Graph, adv Adversary) (*trace.RunLog, error) {
	g.Seal()
	b, err := LookupTarget(cfg.Target)
	if err != nil {
		return nil, err
	}
	sys, err := b.New(g, cfg.Seed, cfg.Workers)
	if err != nil {
		return nil, err
	}
	log := &trace.RunLog{
		Target:       cfg.Target,
		Adversary:    adv.Name(),
		Graph:        cfg.Graph,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
		MaxRounds:    cfg.MaxRounds,
		AttackRounds: cfg.AttackRounds,
		Events:       []trace.EventRec{},
	}

	var applied []faults.Event
	sys.PreRound(func(round int) {
		if round > cfg.AttackRounds {
			return
		}
		obs := sys.Observe()
		prot := toSet(obs.Protected)
		for _, e := range adv.Next(g, round, obs) {
			// The runner is the last line of defence, whatever the
			// adversary proposed: protected nodes survive, and the last
			// live node is never killed (an empty network satisfies
			// everything vacuously).
			if e.Kind == faults.KillNode && (prot[e.Node] || !g.Alive(e.Node) || g.NumNodes() <= 1) {
				continue
			}
			// Label criticality against the pre-application graph — the
			// Section 2 definition judges the fault at the moment it
			// strikes.
			one := []faults.Event{e}
			if sensitivity.CriticalForChi(g, obs.Chi, one) {
				log.Critical = true
			}
			for _, a := range faults.ApplyNow(g, one) {
				a.AtStep = round
				applied = append(applied, a)
			}
		}
	})

	for r := 1; r <= cfg.MaxRounds; r++ {
		sys.Round()
		log.Rounds = r
		log.Digests = append(log.Digests, sys.Digest())
		if err := sys.Check(r); err != nil {
			log.Violation = err.Error()
			log.Round = r
			break
		}
		if r >= cfg.AttackRounds && sys.Done() {
			break
		}
	}
	if log.Violation == "" {
		if err := sys.Final(); err != nil {
			log.Violation = err.Error()
			log.Round = log.Rounds
		}
	}
	log.Events = trace.EventsToRecs(applied)
	return log, nil
}

// configOf reconstructs the Config a recorded log was produced under.
func configOf(l *trace.RunLog) Config {
	return Config{
		Target:       l.Target,
		Adversary:    l.Adversary,
		Graph:        l.Graph,
		Seed:         l.Seed,
		Workers:      l.Workers,
		MaxRounds:    l.MaxRounds,
		AttackRounds: l.AttackRounds,
	}
}

// ReplayLog re-executes a recorded run by re-delivering its event list
// verbatim. Because topology construction, the per-step random streams,
// and round execution are all deterministic in (graph spec, seed), the replay
// reproduces the original run bit-for-bit — same rounds, same violation,
// same per-round digests — regardless of worker count.
func ReplayLog(l *trace.RunLog) (*trace.RunLog, error) {
	events, err := trace.RecsToEvents(l.Events)
	if err != nil {
		return nil, err
	}
	return Execute(configOf(l), Replay(events))
}

// VerifyReplay replays a recorded run and checks bit-identity: identical
// round count, violation, violating round, and per-round digest sequence.
// It returns the replay log alongside any mismatch.
func VerifyReplay(l *trace.RunLog) (*trace.RunLog, error) {
	re, err := ReplayLog(l)
	if err != nil {
		return nil, err
	}
	switch {
	case re.Rounds != l.Rounds:
		return re, fmt.Errorf("chaos: replay ran %d rounds, original %d", re.Rounds, l.Rounds)
	case re.Violation != l.Violation:
		return re, fmt.Errorf("chaos: replay violation %q, original %q", re.Violation, l.Violation)
	case re.Round != l.Round:
		return re, fmt.Errorf("chaos: replay violated at round %d, original %d", re.Round, l.Round)
	case !reflect.DeepEqual(re.Digests, l.Digests):
		return re, fmt.Errorf("chaos: replay state digests diverge from original")
	}
	return re, nil
}
