// Umbrella header: the full public API of the RHCHME library.
//
// Reproduction of Hou & Nayak, "Robust clustering of multi-type relational
// data via a heterogeneous manifold ensemble", ICDE 2015.
//
// Quick start:
//
//   #include "rhchme/rhchme.h"
//   using namespace rhchme;
//
//   auto data = data::GenerateSyntheticCorpus(data::Multi5Preset());
//   core::Rhchme solver(core::RhchmeOptions{});
//   auto result = solver.Fit(data.value());
//   auto scores = eval::ScoreLabels(data.value().Type(0).labels,
//                                   result.value().hocc.labels[0]);
//
// Solver core: one. The joint R stays in CSR form at every fill, so a fit
// allocates no dense n x n matrix (O(nnz + n·c) per iteration); the dense
// E_R is built on demand by core::ErrorMatrix. See docs/ARCHITECTURE.md
// §Memory model.

#ifndef RHCHME_RHCHME_RHCHME_H_
#define RHCHME_RHCHME_RHCHME_H_

// Substrate: linear algebra, graphs, clustering.
#include "la/aligned.h"
#include "la/gemm.h"
#include "la/matrix.h"
#include "la/simd.h"
#include "la/solve.h"
#include "la/sparse.h"

#include "graph/knn_graph.h"
#include "graph/laplacian.h"

#include "cluster/assignments.h"
#include "cluster/kmeans.h"

// Data: containers, generators, transforms.
#include "data/corruption.h"
#include "data/manifolds.h"
#include "data/multitype_data.h"
#include "data/synthetic.h"
#include "data/tfidf.h"

// The paper's contribution.
#include "core/ensemble.h"
#include "core/rhchme_solver.h"
#include "core/subspace.h"

// Baselines benchmarked in the paper.
#include "baselines/drcc.h"
#include "baselines/rmc.h"
#include "baselines/snmtf.h"
#include "baselines/src_clustering.h"

// Evaluation.
#include "eval/experiment.h"
#include "eval/knn_recall.h"
#include "eval/metrics.h"

// Persistence.
#include "io/dataset_io.h"
#include "io/matrix_io.h"

// Utilities.
#include "util/logging.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

#endif  // RHCHME_RHCHME_RHCHME_H_
