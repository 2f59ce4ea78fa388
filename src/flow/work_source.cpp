#include "flow/work_source.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace slpwlo {

// --- VectorSource --------------------------------------------------------------

VectorSource::VectorSource(std::vector<SweepPoint> points)
    : points_(std::move(points)), rows_(points_.size()) {
    for (size_t i = 0; i < points_.size(); ++i) pending_.push_back(i);
}

Lease VectorSource::acquire() {
    Lease lease;
    lease.slots.reserve(pending_.size());
    lease.points.reserve(pending_.size());
    for (const size_t slot : pending_) {
        lease.slots.push_back(slot);
        // Moved, not copied: a leased point lives in its lease until the
        // slot is completed (dropped) or abandoned (moved back).
        lease.points.push_back(std::move(points_[slot]));
    }
    pending_.clear();
    // pending_ is kept sorted (abandon reinserts in order), so a lease is
    // not always contiguous — but it is always ascending.
    if (!lease.slots.empty()) lease.id = lease.slots.front();
    return lease;
}

void VectorSource::complete(const Lease& lease, std::vector<WorkRow> rows) {
    SLPWLO_CHECK(rows.size() == lease.slots.size(),
                 "lease completed with a row count that does not match its "
                 "slot count");
    for (size_t i = 0; i < rows.size(); ++i) {
        const size_t slot = lease.slots[i];
        SLPWLO_CHECK(slot < rows_.size(), "lease slot out of range");
        SLPWLO_CHECK(!rows_[slot].has_value(),
                     "slot completed twice in one VectorSource");
        rows_[slot] = std::move(rows[i]);
    }
}

void VectorSource::abandon(const Lease& lease) {
    SLPWLO_CHECK(lease.points.size() == lease.slots.size(),
                 "abandoned lease slots/points size mismatch");
    // Reinsert in sorted position so pending_ — and therefore every
    // future lease — stays ascending even after several outstanding
    // leases are abandoned out of order.
    for (size_t i = 0; i < lease.slots.size(); ++i) {
        const size_t slot = lease.slots[i];
        SLPWLO_CHECK(slot < points_.size(), "abandoned slot out of range");
        points_[slot] = lease.points[i];
        pending_.insert(
            std::lower_bound(pending_.begin(), pending_.end(), slot), slot);
    }
}

std::vector<WorkRow> VectorSource::take_rows() {
    std::vector<WorkRow> rows;
    rows.reserve(rows_.size());
    for (size_t slot = 0; slot < rows_.size(); ++slot) {
        SLPWLO_CHECK(rows_[slot].has_value(),
                     "VectorSource drained with slot " + std::to_string(slot) +
                         " incomplete");
        rows.push_back(std::move(*rows_[slot]));
    }
    rows_.clear();
    return rows;
}

std::vector<SweepResult> VectorSource::take_results() {
    std::vector<WorkRow> rows = take_rows();
    std::vector<SweepResult> results;
    results.reserve(rows.size());
    for (WorkRow& row : rows) results.push_back(std::move(row.result));
    return results;
}

// --- SweepService --------------------------------------------------------------

SweepService::SweepService(ExecOptions options)
    : owned_(std::make_unique<SweepDriver>(std::move(options))),
      driver_(owned_.get()) {}

SweepService::SweepService(SweepDriver& driver) : driver_(&driver) {}

SweepService::~SweepService() = default;

size_t SweepService::drain(WorkSource& source) {
    size_t executed = 0;
    for (;;) {
        Lease lease = source.acquire();
        if (lease.empty()) break;
        SLPWLO_CHECK(lease.slots.size() == lease.points.size(),
                     "lease slots/points size mismatch");
        std::vector<long long> micros;
        std::vector<SweepResult> results;
        try {
            results = driver_->run_timed(lease.points, &micros);
        } catch (...) {
            source.abandon(lease);
            throw;
        }
        std::vector<WorkRow> rows;
        rows.reserve(results.size());
        for (size_t i = 0; i < results.size(); ++i) {
            rows.push_back(WorkRow{std::move(results[i]), micros[i]});
        }
        executed += rows.size();
        source.complete(lease, std::move(rows));
    }
    return executed;
}

}  // namespace slpwlo
