#ifndef GRIMP_CORE_PIPELINE_H_
#define GRIMP_CORE_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/sampler.h"
#include "graph/store.h"
#include "tensor/tensor.h"

namespace grimp {

// One fully prepared minibatch: everything a training or inference step
// needs short of running the tape. All members are recycled slot storage —
// the vectors keep their capacity and the subgraph is refilled through
// NeighborSampler's scavenging overload, so steady-state preparation
// performs no heap allocations once capacities have grown to the largest
// batch seen (feats comes from the pooled tensor arena).
struct PreparedBatch {
  // Sampled receptive field over the batch's gather rows.
  SampledSubgraph sub;
  // Input features gathered for sub.input_nodes (|input_nodes| x dim).
  Tensor feats;
  // Per-sample-cell local gather index into the block output (-1 == masked
  // cell), |batch| * num_cols entries.
  std::vector<int32_t> local_idx;
  // Task labels / regression targets for the batch's samples (one of the
  // two is filled, matching the task's kind).
  std::vector<int32_t> labels;
  std::vector<float> targets;
};

// Bounded-depth asynchronous batch-preparation pipeline (the DGL-style
// prefetching dataloader, specialized to GRIMP's deterministic batches).
//
// `depth` is the lookahead: producer threads run the caller's PrepareFn —
// sampling (which prefetches and pins shards), feature gathering, label
// slicing — for up to `depth` batches beyond the one the consumer is
// processing, into depth+1 recycled slots. The consumer takes batches
// strictly in order via Next(). Depth 0 is the degenerate serial case: no
// threads are created and Next() prepares inline on the calling thread,
// reproducing the pre-pipeline path op-for-op.
//
// Determinism: a batch's content is a pure function of (batch id, the
// caller's per-batch seed derivation, the graph) — never of which producer
// prepared it or when — so losses and imputations are bit-identical to the
// serial path at any depth and thread count. See DESIGN.md §14 for the
// full argument.
//
// Slot-recycling contract: the consumer may borrow freely from the
// PreparedBatch returned by Next() (tape closures borrow its adjacency and
// index vectors), but all such borrows must be dropped — in the trainer,
// Tape::Reset — before the *next* Next() call. Next(k+1) is the signal
// that releases batch k's slot for reuse by batch k+1+depth. Producers
// therefore never write a slot the consumer can still read: claimable
// batches are bounded by freed + depth + 1, and the batch being consumed
// is by construction outside that window.
//
// Producer threads mark themselves ThreadPool::MarkCallerInlineOnly, so
// nested ParallelFors (shard loads inside Prefetch, the feature gather)
// run inline on the producer and never contend with the consumer's GEMMs
// for pool workers.
//
// Metrics: train.pipeline.{produced,consumed,stalls} counters,
// train.pipeline.queue_depth gauge, train.pipeline.wait_micros histogram
// (consumer time blocked waiting for an unready batch), plus
// "train.pipeline.prepare" / "train.pipeline.wait" trace spans.
class BatchPipeline {
 public:
  // Prepares batch `batch` into *out, sampling with *sampler (a sampler
  // over the pipeline's store with its fanouts, owned by the calling
  // producer — or by the pipeline at depth 0 — because a NeighborSampler
  // must not run concurrent Sample calls). Must derive all randomness from
  // `batch` (and state fixed before Begin), never from shared mutable
  // state — the function runs concurrently on multiple producer threads
  // for different batch ids. Sampler scratch never influences sampled
  // content (draws are keyed per (nonce, layer, type, node)), so every
  // producer yields bit-identical batches.
  using PrepareFn = std::function<void(int64_t batch, PreparedBatch* out,
                                       NeighborSampler* sampler)>;

  // `store` must outlive the pipeline; `fanouts` are the per-layer sampler
  // fanouts (already defaulted by the caller); `depth` is clamped to
  // [0, kMaxDepth]. Producer threads (min(depth, 4)) start here and live
  // until destruction, parked between runs.
  BatchPipeline(int depth, const GraphStore* store, std::vector<int> fanouts);
  ~BatchPipeline();

  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  int depth() const { return depth_; }

  // Starts a run of `total_batches` batches. No other run may be active.
  void Begin(int64_t total_batches, PrepareFn prepare);

  // Returns the next batch in order, blocking until it is ready. The
  // reference is valid until the following Next()/End() call (see the
  // slot-recycling contract above). Must be called exactly once per batch,
  // at most total_batches times, from one consumer thread.
  PreparedBatch& Next();

  // Ends the run: cancels unclaimed batches, waits for in-flight
  // preparation to drain, and clears slot ready-marks so a subsequent
  // Begin starts clean. Prepared-but-unconsumed batches are discarded.
  void End();

  // Lookahead ceiling; deeper pipelines only add slot memory without
  // hiding more latency than the slowest stage allows.
  static constexpr int kMaxDepth = 16;

 private:
  struct Slot {
    PreparedBatch batch;
    int64_t ready_batch = -1;  // batch id published in this slot
  };
  struct Producer {
    std::unique_ptr<NeighborSampler> sampler;
    std::thread thread;
  };

  void ProducerMain(Producer* self);
  // The calling producer's sampler (the inline one for null), created on
  // first use.
  NeighborSampler* SamplerFor(Producer* self);

  const int depth_;
  const GraphStore* store_;
  const std::vector<int> fanouts_;
  std::vector<Slot> slots_;         // depth + 1 recycled slots
  std::vector<Producer> producers_;
  // Depth-0 (inline) sampler, created lazily on first Next().
  std::unique_ptr<NeighborSampler> inline_sampler_;

  std::mutex mu_;
  std::condition_variable producer_cv_;  // producers wait for claimable work
  std::condition_variable ready_cv_;     // consumer waits for its batch
  std::condition_variable idle_cv_;      // End waits for in-flight prepares
  PrepareFn prepare_;
  int64_t total_ = 0;         // batches in the current run
  int64_t next_claim_ = 0;    // next batch id a producer may claim
  int64_t consume_next_ = 0;  // next batch id Next() returns
  int64_t freed_ = 0;         // batches whose slots are fully released
  int64_t produced_ = 0;      // batches published and not yet consumed + consumed
  int active_ = 0;            // producers currently inside prepare_
  bool running_ = false;
  bool stop_ = false;
};

// The sampled forward of one batch, in two steps shared by training and
// streaming inference. SampleBatchSeeds takes the gather rows in
// out->local_idx (global node ids, -1 == masked cell), samples their
// receptive field into out->sub with *sampler and *rng, and rewrites
// local_idx to rows of the block output (the sampler's seed_rows). A batch
// whose cells are all masked samples the dummy seed 0 instead, so the
// forward still type-checks. GatherBatchInputs then gathers the field's
// input features from `features` into a fresh arena-backed out->feats
// (chunked on the global pool; rows are disjoint, so results are
// bit-identical at every thread count — and on pipeline producer threads
// the chunks run inline).
void SampleBatchSeeds(Rng* rng, NeighborSampler* sampler, PreparedBatch* out);
void GatherBatchInputs(const Tensor& features, PreparedBatch* out);

}  // namespace grimp

#endif  // GRIMP_CORE_PIPELINE_H_
