package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"sdnbugs/internal/corpus"
	"sdnbugs/internal/mathx"
	"sdnbugs/internal/ml"
	"sdnbugs/internal/ml/adaboost"
	"sdnbugs/internal/ml/dtree"
	"sdnbugs/internal/ml/pca"
	"sdnbugs/internal/ml/svm"
	"sdnbugs/internal/nlp"
	"sdnbugs/internal/nlp/tfidf"
	"sdnbugs/internal/nlp/word2vec"
	"sdnbugs/internal/parallel"
	"sdnbugs/internal/study"
	"sdnbugs/internal/taxonomy"
)

// The study workload: one op is one study.Validator.Validate on the
// seed corpus's 150-bug manual set, with a split seed no other op of
// the run uses, so the Validator's run cache never answers an op. The
// split seed also seeds Word2Vec, the SVMs and PCA, and how long PCA
// and the SVMs take to converge depends on it: one run's sixteen ops
// took a quarter longer than another's. So a run of n ops validates
// the same n split seeds whatever the workload seed, which only orders
// them. A traced pass replays the same ops from the layers' public
// calls.
var studyWorkload = workload{
	name:         "study",
	unit:         "cell (dimension x model)",
	opsPerSecond: 1.0,
	tracedSteps:  func(n int) int { return min(n, studyTracedOps) },
	tracedSetup:  newStudyReplay,
	setup:        newStudy,
}

// studyCorpusSeed is the seed corpus: the one every experiment of the
// study reports on.
const studyCorpusSeed = 1

// studyTracedOps is how many ops a traced study pass replays; the
// untraced pass's first ops are its reference.
const studyTracedOps = 3

// studyE09Ops is the fewest ops whose mean accuracies the E09
// thresholds are checked on (E09 itself averages 3 splits).
const studyE09Ops = 3

type studyRun struct {
	seed    int64
	n       int
	splits  []int64 // op i's split seed
	workers int
	// replay makes every op replayValidate, traced or not.
	replay  bool
	bugs    []study.LabeledBug
	val     *study.Validator
	results [][]study.ValidationResult
}

// studySplitSeed is the k-th split seed; -1 is the warm-up's.
func studySplitSeed(k int) int64 {
	return 1_000_003 + 7919*int64(k+1)
}

// studyBlock is how many split seeds the workload seed orders at a
// time: the ops of a default ten-second run.
const studyBlock = 10

// studySplits is the split seeds of a run of n ops. Ops come in blocks
// of studyBlock; block b validates split seeds b*studyBlock to
// (b+1)*studyBlock-1 in an order drawn from seed, the same for every
// block. A shorter run (a traced pass) makes the first ops of a longer
// one.
func studySplits(seed int64, n int) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(studyBlock)
	out := make([]int64, n)
	for i := range out {
		out[i] = studySplitSeed(i/studyBlock*studyBlock + perm[i%studyBlock])
	}
	return out
}

func studyConfig(seed int64, workers int) study.PipelineConfig {
	return study.PipelineConfig{Seed: seed, Workers: workers}
}

// newStudyReplay builds a study whose ops replay Validate from the
// layers' public calls even when untraced, so tracing overhead is
// measured on the same calls.
func newStudyReplay(seed int64, n int) (runner, error) {
	r, err := newStudy(seed, n)
	if err != nil {
		return nil, err
	}
	r.(*studyRun).replay = true
	return r, nil
}

func newStudy(seed int64, n int) (runner, error) {
	c, err := corpus.Generate(studyCorpusSeed)
	if err != nil {
		return nil, err
	}
	issues, labels := c.ManualSubset()
	bugs := make([]study.LabeledBug, len(issues))
	for i := range issues {
		bugs[i] = study.LabeledBug{Issue: issues[i], Label: labels[i]}
	}
	s := &studyRun{seed: seed, n: n, splits: studySplits(seed, n), workers: runtime.GOMAXPROCS(0),
		bugs: bugs, val: study.NewValidator(bugs)}
	// The warm-up fills the Validator's tokenization and TF-IDF caches
	// with a split seed no op uses.
	res, err := s.val.Validate(studyConfig(studySplitSeed(-1), s.workers))
	if err != nil {
		return nil, fmt.Errorf("warm-up validate: %w", err)
	}
	if err := checkValidation(res); err != nil {
		return nil, fmt.Errorf("warm-up validate: %w", err)
	}
	return s, nil
}

func (s *studyRun) steps() int { return s.n }

func (s *studyRun) step(i int, m *meter) error {
	seed := s.splits[i]
	cells := len(taxonomy.Dimensions()) * len(studyModels)
	return m.timeOp(func() (int, error) {
		var res []study.ValidationResult
		var err error
		if m.tr == nil && !s.replay {
			res, err = s.val.Validate(studyConfig(seed, s.workers))
		} else {
			res, err = replayValidate(s.bugs, seed, s.workers, m.tr)
		}
		if err != nil {
			return 0, err
		}
		s.results = append(s.results, res)
		if err := checkValidation(res); err != nil {
			return 0, fmt.Errorf("op %d: %w", i, err)
		}
		return cells, nil
	})
}

// checkValidation checks one op's output shape: every dimension, every
// model, accuracies in [0,1], Best the first maximum in model order.
func checkValidation(res []study.ValidationResult) error {
	dims := taxonomy.Dimensions()
	if len(res) != len(dims) {
		return fmt.Errorf("%d dimensions, want %d", len(res), len(dims))
	}
	for di, r := range res {
		if r.Dimension != dims[di] {
			return fmt.Errorf("dimension %d is %v, want %v", di, r.Dimension, dims[di])
		}
		best := study.ModelName("")
		for _, mn := range studyModels {
			a, ok := r.Accuracies[mn]
			if !ok || math.IsNaN(a) || a < 0 || a > 1 {
				return fmt.Errorf("%v/%s accuracy %v", r.Dimension, mn, a)
			}
			if best == "" || a > r.Accuracies[best] {
				best = mn
			}
		}
		if r.Best != best {
			return fmt.Errorf("%v best %s, want %s", r.Dimension, r.Best, best)
		}
	}
	return nil
}

// verify compares op 0 with a Validate on a fresh Validator at the same
// seed, bit for bit, and checks the E09 thresholds on the mean
// accuracies of the pass.
func (s *studyRun) verify() []error {
	var errs errList
	if len(s.results) != s.steps() {
		errs.check(false, "study: %d ops produced results, want %d", len(s.results), s.steps())
		return errs
	}
	ref, err := study.NewValidator(s.bugs).Validate(studyConfig(s.splits[0], s.workers))
	if err != nil {
		errs.check(false, "study: reference validate: %v", err)
		return errs
	}
	errs.check(sameResults(ref, s.results[0]), "study: op 0 accuracies differ from a fresh Validate at the same seed")
	if len(s.results) >= studyE09Ops {
		errs = append(errs, checkE09(meanResults(s.results))...)
	}
	return errs
}

// sameResults compares accuracies bit for bit.
func sameResults(a, b []study.ValidationResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dimension != b[i].Dimension || a[i].Best != b[i].Best {
			return false
		}
		for _, mn := range studyModels {
			if math.Float64bits(a[i].Accuracies[mn]) != math.Float64bits(b[i].Accuracies[mn]) {
				return false
			}
		}
	}
	return true
}

func meanResults(all [][]study.ValidationResult) map[taxonomy.Dimension]map[study.ModelName]float64 {
	mean := map[taxonomy.Dimension]map[study.ModelName]float64{}
	for _, res := range all {
		for _, r := range res {
			if mean[r.Dimension] == nil {
				mean[r.Dimension] = map[study.ModelName]float64{}
			}
			for mn, a := range r.Accuracies {
				mean[r.Dimension][mn] += a / float64(len(all))
			}
		}
	}
	return mean
}

// checkE09 applies the E09 experiment's checks to mean accuracies.
func checkE09(mean map[taxonomy.Dimension]map[study.ModelName]float64) []error {
	var errs errList
	typeAcc := mean[taxonomy.DimType][study.ModelSVM]
	symAcc := mean[taxonomy.DimSymptom][study.ModelSVM]
	fixAcc := mean[taxonomy.DimFix][study.ModelSVM]
	symRaw := mean[taxonomy.DimSymptom][study.ModelSVMNoNorm]
	errs.check(typeAcc >= 0.90, "study: E09 SVM bug-type accuracy %.3f < 0.90", typeAcc)
	errs.check(symAcc >= 0.72 && symAcc <= 0.97, "study: E09 SVM symptom accuracy %.3f outside [0.72, 0.97]", symAcc)
	errs.check(fixAcc < symAcc-0.2, "study: E09 fix accuracy %.3f not below symptom %.3f - 0.2", fixAcc, symAcc)
	errs.check(symAcc >= symRaw, "study: E09 normalized SVM %.3f below unnormalized %.3f", symAcc, symRaw)
	return errs
}

// digest covers the ops a traced pass replays.
func (s *studyRun) digest() string {
	h := sha256.New()
	for i := 0; i < min(len(s.results), studyTracedOps); i++ {
		for _, r := range s.results[i] {
			fmt.Fprintf(h, "%d %s", r.Dimension, r.Best)
			for _, mn := range studyModels {
				fmt.Fprintf(h, " %x", math.Float64bits(r.Accuracies[mn]))
			}
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *studyRun) layers(tr *tracer) map[string]metric {
	ops := float64(max(tr.ops(), 1))
	perOp := func(name string) metric {
		return metric{ms(tr.stat(name).total) / ops, "ms"}
	}
	grid := tr.stat("parallel.grid")
	cell := tr.stat("study.cell")
	busy := 0.0
	if grid.total > 0 {
		busy = float64(cell.total) / (float64(grid.total) * float64(s.workers))
	}
	return map[string]metric{
		"nlp.preprocess_ms":   perOp("nlp.preprocess"),
		"tfidf.fit_ms":        perOp("tfidf.fit"),
		"tfidf.transform_ms":  perOp("tfidf.transform"),
		"word2vec.train_ms":   perOp("word2vec.train"),
		"word2vec.docvec_ms":  perOp("word2vec.docvec"),
		"pca.fit_ms":          perOp("pca.fit"),
		"pca.transform_ms":    perOp("pca.transform"),
		"svm.fit_ms":          perOp("svm.fit"),
		"svm.predict_ms":      perOp("svm.predict"),
		"dtree.fit_ms":        perOp("dtree.fit"),
		"adaboost.fit_ms":     perOp("adaboost.fit"),
		"parallel.busy_ratio": {busy, "ratio"},
		"study.cell_ms_max":   {ms(cell.max), "ms"},
	}
}

func (s *studyRun) close() {}

// studyModels is the study package's canonical model order.
var studyModels = []study.ModelName{
	study.ModelSVM, study.ModelSVMNoNorm, study.ModelDTree, study.ModelAdaBoost, study.ModelPCASVM,
}

// The settings study.Validate uses with a default PipelineConfig; the
// replay must use the same ones to reproduce its accuracies.
const (
	replayMaxVocab   = 400
	replayMinDF      = 2
	replayW2VDim     = 40
	replayW2VEpochs  = 5
	replayComponents = 24
)

func replaySVM(seed int64) *svm.Multiclass {
	return &svm.Multiclass{Epochs: 80, Lambda: 1e-4, Balanced: true, Seed: seed}
}

// replayValidate reproduces one Validate op from the layers' public
// calls, with a span around each: tokenization, TF-IDF, Word2Vec,
// the train/test splits, then every (dimension, model) cell on the
// parallel pool.
func replayValidate(bugs []study.LabeledBug, seed int64, workers int, tr *tracer) ([]study.ValidationResult, error) {
	root := tr.begin("study.validate", -1)
	defer tr.end(root)

	sp := tr.begin("nlp.preprocess", root)
	docs := make([][]string, len(bugs))
	for i, b := range bugs {
		docs[i] = nlp.Preprocess(b.Issue.Text())
	}
	tr.end(sp)

	dims := taxonomy.Dimensions()
	labels := make([][]int, len(dims))
	for di, d := range dims {
		cats := d.Categories()
		labels[di] = make([]int, len(bugs))
		for i, b := range bugs {
			idx := -1
			for ci, c := range cats {
				if c == b.Label.Tag(d) {
					idx = ci
					break
				}
			}
			if idx < 0 {
				return nil, fmt.Errorf("bug %s: tag %q not in %v", b.Issue.ID, b.Label.Tag(d), d)
			}
			labels[di][i] = idx
		}
	}

	sp = tr.begin("tfidf.fit", root)
	vec := &tfidf.Vectorizer{MaxVocab: replayMaxVocab, MinDF: replayMinDF}
	err := vec.Fit(docs)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("word2vec.train", root)
	w2v, err := word2vec.Train(docs, word2vec.Config{Dim: replayW2VDim, Epochs: replayW2VEpochs, Seed: seed})
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	off := vec.VocabSize()
	xRaw := mathx.NewMatrix(len(docs), off+w2v.Dim())
	sp = tr.begin("tfidf.transform", root)
	for i, doc := range docs {
		v, err := vec.Transform(doc)
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		copy(xRaw.Row(i)[:len(v)], v)
	}
	tr.end(sp)
	sp = tr.begin("word2vec.docvec", root)
	for i, doc := range docs {
		copy(xRaw.Row(i)[off:], w2v.DocVector(doc))
	}
	tr.end(sp)
	xNorm := xRaw.Clone()
	for i := 0; i < xNorm.Rows(); i++ {
		mathx.Normalize(xNorm.Row(i))
	}

	type split struct{ train, test, trN, teN *ml.Dataset }
	splits := make([]split, len(dims))
	sp = tr.begin("ml.split", root)
	for di, d := range dims {
		var s split
		dsRaw, err := ml.NewDataset(xRaw, labels[di])
		if err == nil {
			s.train, s.test, err = ml.TrainTestSplit(dsRaw, 2.0/3.0, seed+int64(d))
		}
		var dsNorm *ml.Dataset
		if err == nil {
			dsNorm, err = ml.NewDataset(xNorm, labels[di])
		}
		if err == nil {
			s.trN, s.teN, err = ml.TrainTestSplit(dsNorm, 2.0/3.0, seed+int64(d))
		}
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		splits[di] = s
	}
	tr.end(sp)

	accs := make([][]float64, len(dims))
	for i := range accs {
		accs[i] = make([]float64, len(studyModels))
	}
	grid := tr.begin("parallel.grid", root)
	err = parallel.MapErr(workers, len(dims)*len(studyModels), func(c int) error {
		di, mi := c/len(studyModels), c%len(studyModels)
		cell := tr.begin("study.cell", grid)
		defer tr.end(cell)
		s := splits[di]
		acc, err := replayCell(studyModels[mi], seed, s.train, s.test, s.trN, s.teN, tr, cell)
		if err != nil {
			return fmt.Errorf("%v/%s: %w", dims[di], studyModels[mi], err)
		}
		accs[di][mi] = acc
		return nil
	})
	tr.end(grid)
	if err != nil {
		return nil, err
	}

	out := make([]study.ValidationResult, len(dims))
	for di, d := range dims {
		r := study.ValidationResult{Dimension: d, Accuracies: map[study.ModelName]float64{}}
		for mi, mn := range studyModels {
			r.Accuracies[mn] = accs[di][mi]
			if r.Best == "" || accs[di][mi] > r.Accuracies[r.Best] {
				r.Best = mn
			}
		}
		out[di] = r
	}
	return out, nil
}

// replayCell trains and scores one model exactly as ml.EvaluateSplit
// does inside Validate, splitting PCA+SVM into its PCA and SVM calls.
func replayCell(mn study.ModelName, seed int64, train, test, trN, teN *ml.Dataset, tr *tracer, parent int) (float64, error) {
	var fitName, predName string
	var clf ml.Classifier
	switch mn {
	case study.ModelSVM:
		train, test = trN, teN
		fitName, predName, clf = "svm.fit", "svm.predict", replaySVM(seed)
	case study.ModelSVMNoNorm:
		fitName, predName, clf = "svm.fit", "svm.predict", replaySVM(seed)
	case study.ModelDTree:
		fitName, predName, clf = "dtree.fit", "dtree.predict", &dtree.Tree{MaxDepth: 10}
	case study.ModelAdaBoost:
		fitName, predName, clf = "adaboost.fit", "adaboost.predict", &adaboost.Ensemble{Rounds: 40}
	case study.ModelPCASVM:
		return replayPCASVM(seed, trN, teN, tr, parent)
	default:
		return 0, fmt.Errorf("unknown model %s", mn)
	}
	sp := tr.begin(fitName, parent)
	err := clf.Fit(train.X, train.Y)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	pred := make([]int, test.Len())
	sp = tr.begin(predName, parent)
	defer tr.end(sp)
	for i := range pred {
		if pred[i], err = clf.Predict(test.X.Row(i)); err != nil {
			return 0, err
		}
	}
	return ml.Accuracy(pred, test.Y)
}

// replayPCASVM is pca.Reduced's Fit and Predict, call by call.
func replayPCASVM(seed int64, train, test *ml.Dataset, tr *tracer, parent int) (float64, error) {
	comps := replayComponents
	if comps > train.X.Cols() {
		comps = min(train.X.Cols(), 16)
	}
	p := &pca.PCA{Components: comps, Seed: seed}
	sp := tr.begin("pca.fit", parent)
	err := p.Fit(train.X)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("pca.transform", parent)
	proj, err := p.TransformMatrix(train.X)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	inner := replaySVM(seed)
	sp = tr.begin("svm.fit", parent)
	err = inner.Fit(proj, train.Y)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	rows := make([][]float64, test.Len())
	sp = tr.begin("pca.transform", parent)
	for i := range rows {
		if rows[i], err = p.Transform(test.X.Row(i)); err != nil {
			tr.end(sp)
			return 0, err
		}
	}
	tr.end(sp)
	pred := make([]int, len(rows))
	sp = tr.begin("svm.predict", parent)
	defer tr.end(sp)
	for i, r := range rows {
		if pred[i], err = inner.Predict(r); err != nil {
			return 0, err
		}
	}
	return ml.Accuracy(pred, test.Y)
}
