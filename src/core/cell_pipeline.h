// CellPipeline: the cell-execution driver of the Flipper algorithm
// (Algorithm 1). Each cell Q(h,k) runs through three explicit stages,
// one cell at a time —
//
//   plan     (CellPlanner)   candidate generation, strategy selection
//   count    (SupportCounter) one sharded database scan on the pool,
//                             or the scan-driven route (scan_cell.h)
//   evaluate (CellEvaluator)  correlation, labels, chains, SIBP
//
// — in the paper's processing order: the two ceiling rows zigzag
// Q(1,2) -> Q(2,2) -> Q(1,3) -> ... so TPG always sees two vertically
// consecutive cells, then rows 3..H run left to right. The count stage
// is split into count_start (SupportCounter::StartCount dispatches the
// shard tasks) and count_wait (the driver joins them), so the trace
// shows how long the driver sat idle on the pool. Only two rows are
// resident, and completed rows evict chain-dead itemsets. Mining
// output is bit-identical for any thread count.
//
// The driver does not plan Q(h,k+1) while Q(h,k) counts: measured end
// to end at 1 and 4 threads, that overlap (within a row or across the
// row seam) stayed within run-to-run noise, and it needed a
// revalidation protocol for plans made against a stale SIBP ban set.

#ifndef FLIPPER_CORE_CELL_PIPELINE_H_
#define FLIPPER_CORE_CELL_PIPELINE_H_

#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/cell.h"
#include "core/cell_evaluator.h"
#include "core/cell_planner.h"
#include "core/config.h"
#include "core/level_views.h"
#include "core/mining_result.h"
#include "core/scan_cell.h"
#include "core/support_counting.h"
#include "data/transaction_db.h"
#include "taxonomy/taxonomy.h"

namespace flipper {

class CellPipeline {
 public:
  CellPipeline(const Taxonomy& taxonomy, const MiningConfig& config)
      : tax_(taxonomy), config_(config) {}

  /// One full mining run over `db`.
  Result<MiningResult> Execute(const TransactionDb& db) {
    return Execute(db, nullptr);
  }

  /// Same run over pre-built (shared, read-only) level views of `db`.
  /// A non-null `shared_views` skips the per-run views build: the
  /// pipeline only reads them (their lazy vertical index goes through
  /// its thread-safe seam), so any number of concurrent pipelines may
  /// borrow one LevelViews instance, each with its own pool. Results
  /// are bit-identical to the owned-views path — shard counts derive
  /// from this run's pool, never from whoever built the views. The
  /// views must describe exactly `db` and outlive the call.
  Result<MiningResult> Execute(const TransactionDb& db,
                               const LevelViews* shared_views);

 private:
  /// A row of the search-space table: row[k - 2] is Q(h, k).
  using Row = std::vector<Cell>;

  /// One cell travelling through the stages. The destructor joins
  /// any still in-flight count (idempotent) so an error-path unwind can
  /// never free buffers a pool task is writing.
  struct CellWork {
    CellStats cs;
    WallTimer timer;
    std::vector<Itemset> candidates;
    std::vector<uint32_t> supports;
    CountFuture future;

    CellWork() = default;
    ~CellWork() { future.Join(); }
    CellWork(const CellWork&) = delete;
    CellWork& operator=(const CellWork&) = delete;
  };

  /// Plan + count dispatch for a row-1 cell.
  Status BeginRow1Cell(int k, const Cell* prev_in_row, CellWork* work);

  /// Plan + count dispatch for a vertical cell Q(h,k), h >= 2: applies
  /// the within-row known-infrequent filter, then dispatches the count
  /// or runs the scan-driven route inline (which leaves the future
  /// ready). `work`'s address must stay stable until FinishCell,
  /// because the in-flight count writes into work->supports.
  Status BeginVerticalCell(int h, int k, const Cell* parent,
                           const Cell* prev_in_row, CellWork* work);

  /// Joins the count, runs evaluation, commits the cell's stats. Never
  /// returns a cell that cancellation cut short.
  Result<Cell> FinishCell(CellWork* work, const Cell* parent);

  Status TruncatedError(int h, int k) const;

  /// Cooperative-cancellation poll point. OK while config_.cancel is
  /// null or un-fired (one relaxed load — the hot case); once the
  /// token fires this records the partial-run MiningStats into the
  /// metrics sink and returns the token's DeadlineExceeded/Cancelled
  /// status, which unwinds Execute through the normal error path
  /// (CellWork destructors join in-flight counts, counter scratch
  /// returns to its pool via the count finalizer).
  Status CheckCancel();

  /// Theorem-3 premise over two vertically consecutive cells.
  bool TpgFires(const Cell& upper, const Cell& lower) const {
    return config_.pruning.tpg && upper.AllNonPositive() &&
           lower.AllNonPositive();
  }

  /// Evicts records a completed row no longer needs: chain-dead ones
  /// under flipping pruning ("eliminate non-flipping patterns"),
  /// infrequent ones always. Polls cancellation between cells.
  Status EvictCompletedRow(Row* row);

  /// Absorbs the run's counters, stage histograms and pool utilization
  /// into config_.metrics (no-op when null).
  void RecordRunMetrics(const MiningStats& stats, double wall_ms);

  const Taxonomy& tax_;
  const MiningConfig& config_;
  /// == config_.metrics; cached so every stage scope is one member
  /// read. Null means "record nothing".
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
  /// Built per run when Execute gets no shared views; unused otherwise.
  LevelViews owned_views_;
  /// The views this run reads: &owned_views_ or the borrowed instance.
  const LevelViews* views_ = nullptr;
  std::unique_ptr<SupportCounter> counter_;
  std::unique_ptr<CellPlanner> planner_;
  std::unique_ptr<CellEvaluator> evaluator_;
  MemoryTracker tracker_;
  MiningStats stats_;
  /// Whole-run stopwatch (member so the cancellation unwind can stamp
  /// partial stats from any stage).
  WallTimer run_timer_;
  /// Shard buffers of the scan-driven cells, reused across cells (the
  /// scan-cell analogue of the counter's trie-reuse scratch).
  ScanCellScratch scan_scratch_;

  uint32_t num_txns_ = 0;
  int height_ = 0;
  int max_k_ = 0;  // current column cap; TPG shrinks it

  /// Frequent single items per level (index h), sorted by id.
  std::vector<std::vector<ItemId>> freq_items_;
};

}  // namespace flipper

#endif  // FLIPPER_CORE_CELL_PIPELINE_H_
