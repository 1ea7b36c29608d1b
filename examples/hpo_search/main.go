// Hpo_search demonstrates distributed hyper-parameter tuning (the paper's
// experiment-parallel method) on the unified training-orchestration API:
// every trial is a train.Session over a raysgd-selected strategy, composed
// from callbacks — periodic checkpointing, cache release between the train
// and eval phases, and the Ray.Tune reporting protocol.
//
// The walkthrough has three acts:
//
//  1. A 12-configuration search (log-spaced learning rates × loss ×
//     optimizer) runs as a resumable campaign... and is "killed" partway
//     through by a preemption callback that aborts trials once a global
//     epoch budget is spent — the stand-in for a cluster job hitting its
//     time limit.
//  2. The identical command re-runs over the same campaign directory:
//     completed trials are restored from their records without retraining,
//     interrupted trials resume from their last session checkpoint, and
//     the final ranking is bit-identical to a never-interrupted search.
//  3. The same search runs under the ASHA early-stopping scheduler,
//     showing schedulers compose with campaign resume unchanged.
//
// Run with: go run ./examples/hpo_search
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/msd"
	"repro/internal/raysgd"
	"repro/internal/train"
	"repro/internal/tune"
	"repro/internal/unet"
	"repro/internal/volume"
)

// errPreempted is the simulated cluster time limit.
var errPreempted = errors.New("preempted: epoch budget exhausted")

// preemptAfter aborts the session once the shared epoch counter crosses the
// budget — from the session's point of view, the process dies mid-campaign.
type preemptAfter struct {
	train.NopCallback
	counter *atomic.Int64
	budget  int64
}

func (p *preemptAfter) OnEpochEnd(s *train.Session, stats train.EpochStats) error {
	if p.counter.Add(1) > p.budget {
		return errPreempted
	}
	return nil
}

func main() {
	log.SetFlags(0)

	// Dataset and network shared by every trial.
	dcfg := msd.Config{Cases: 10, D: 8, H: 8, W: 8, Seed: 11}
	var trainSet, val []*volume.Sample
	for i := 0; i < 10; i++ {
		s, err := volume.Preprocess(msd.GenerateCase(dcfg, i), 2)
		if err != nil {
			log.Fatal(err)
		}
		if i < 8 {
			trainSet = append(trainSet, s)
		} else {
			val = append(val, s)
		}
	}
	net := unet.Config{InChannels: 4, OutChannels: 1, BaseFilters: 2, Steps: 2, Kernel: 3, UpKernel: 2, Seed: 4}

	space, err := tune.NewSpace(
		tune.LogSpaced("lr", 0.002, 0.05, 3), // log-scale LR grid
		tune.Grid("loss", "dice", "quadratic-dice"),
		tune.Grid("optimizer", "adam", "sgd"),
	)
	if err != nil {
		log.Fatal(err)
	}
	configs, err := space.GridConfigs()
	if err != nil {
		log.Fatal(err)
	}
	tune.SortConfigs(configs)
	fmt.Printf("search space: %d configurations (log-spaced lr × loss × optimizer)\n", len(configs))

	cl, err := cluster.MareNostrum(2) // 8 GPUs
	if err != nil {
		log.Fatal(err)
	}

	campaignDir, err := os.MkdirTemp("", "hpo-campaign-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(campaignDir)

	const epochs = 6

	// trainable builds one train.Session per trial: the raysgd trainer
	// selects the strategy (one GPU per trial → sequential), and callbacks
	// add checkpointing, the memory-pressure hook and reporting.
	trainable := func(extra ...train.Callback) tune.Trainable {
		return func(ctx *tune.TrialContext) error {
			cfg := ctx.Trial.Config
			tr, err := raysgd.New(raysgd.Config{
				Cluster:         cl,
				GPUs:            1, // experiment parallelism: one GPU per trial
				Net:             net,
				Loss:            cfg.Str("loss"),
				Optimizer:       cfg.Str("optimizer"),
				BaseLR:          cfg.Float("lr"),
				BatchPerReplica: 2,
				Seed:            9,
			})
			if err != nil {
				return err
			}
			trialDir, err := ctx.Dir()
			if err != nil {
				return err
			}
			cbs := []train.Callback{
				train.CacheRelease{}, // drop retained activations before each validation pass
				train.ReportFunc(func(st train.EpochStats) bool {
					return ctx.Report(st.Epoch+1, map[string]float64{"dice": st.ValDice})
				}),
			}
			ckptPath := ""
			if trialDir != "" {
				ckptPath = filepath.Join(trialDir, "session.ckpt")
				cbs = append(cbs, &train.PeriodicCheckpoint{Path: ckptPath, Every: 1})
			}
			cbs = append(cbs, extra...)
			sess, err := tr.NewSession(epochs, cbs...)
			if err != nil {
				return err
			}
			if ckptPath != "" {
				resumed, err := sess.ResumeFromFile(ckptPath, func(st train.EpochStats) bool {
					return ctx.Report(st.Epoch+1, map[string]float64{"dice": st.ValDice})
				})
				if err != nil {
					return err
				}
				if resumed {
					fmt.Printf("  trial %2d resumes at epoch %d\n", ctx.Trial.ID, sess.Epoch())
				}
			}
			_, err = sess.Fit(trainSet, val)
			return err
		}
	}

	runCampaign := func(label string, tb tune.Trainable) *tune.Analysis {
		runner, err := tune.NewRunner(cl, nil, "dice", "max")
		if err != nil {
			log.Fatal(err)
		}
		runner.CheckpointDir = campaignDir
		analysis, err := runner.Run(configs, tb)
		if err != nil {
			log.Fatal(err)
		}
		counts := analysis.StatusCounts()
		epochsRun := 0
		for _, t := range analysis.Trials {
			epochsRun += len(t.Reports())
		}
		fmt.Printf("%s: %d epochs reported, %d finished, %d errored\n",
			label, epochsRun, counts[tune.Terminated], counts[tune.Errored])
		return analysis
	}

	// Act 1 — the campaign is killed after ~half the total epoch budget.
	fmt.Println("\n--- act 1: campaign preempted mid-flight ---")
	var spent atomic.Int64
	budget := int64(len(configs) * epochs / 2)
	runCampaign("preempted run", trainable(&preemptAfter{counter: &spent, budget: budget}))

	// Act 2 — same command, same directory: finished trials restore from
	// their records, preempted ones resume from their session checkpoints.
	fmt.Println("\n--- act 2: re-run resumes the campaign ---")
	analysis := runCampaign("resumed run", trainable())
	best := analysis.Best()
	bestDice, _ := best.BestMetric("dice", "max")
	fmt.Printf("best dice %.4f with lr=%.3g loss=%s optimizer=%s\n",
		bestDice, best.Config.Float("lr"), best.Config.Str("loss"), best.Config.Str("optimizer"))
	fmt.Println("ranking:")
	for i, t := range analysis.Ranked() {
		if i >= 5 {
			break
		}
		d, _ := t.BestMetric("dice", "max")
		fmt.Printf(" %d. dice %.4f  lr=%-7.3g loss=%-15s opt=%-5s %s\n",
			i+1, d, t.Config.Float("lr"), t.Config.Str("loss"), t.Config.Str("optimizer"), t.Status())
	}

	// Act 3 — early stopping composes with the same machinery: a fresh
	// campaign directory, the ASHA scheduler trimming weak trials.
	fmt.Println("\n--- act 3: ASHA early stopping on a fresh campaign ---")
	ashaDir, err := os.MkdirTemp("", "hpo-asha-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(ashaDir)
	runner, err := tune.NewRunner(cl, tune.NewASHA("dice", "max", 2, 2), "dice", "max")
	if err != nil {
		log.Fatal(err)
	}
	runner.CheckpointDir = ashaDir
	ashaAnalysis, err := runner.Run(configs, trainable())
	if err != nil {
		log.Fatal(err)
	}
	counts := ashaAnalysis.StatusCounts()
	epochsRun := 0
	for _, t := range ashaAnalysis.Trials {
		epochsRun += len(t.Reports())
	}
	fmt.Printf("asha: %d epochs trained (vs %d without early stopping), %d finished, %d stopped early\n",
		epochsRun, len(configs)*epochs, counts[tune.Terminated], counts[tune.Stopped])
}
