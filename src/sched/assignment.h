// Request assignment onto a fixed server fleet (paper §5.2): each gaming
// request goes to the server that maximizes the predicted average frame
// rate after assignment (equivalently: the best marginal predicted-FPS
// gain), or — for the VBP baseline — to the worst-fit server with the
// most remaining capacity.
//
// Servers with identical content are interchangeable, so the assigners
// track *groups* of servers keyed by their colocation content and memoize
// predicted scores per (content, candidate) pair. That turns the paper's
// 5000-requests x thousands-of-servers greedy into a few thousand model
// evaluations.
#pragma once

#include <span>
#include <vector>

#include "baselines/vbp_model.h"
#include "gaugur/lab.h"
#include "sched/methodology.h"

namespace gaugur::sched {

struct AssignmentOptions {
  std::size_t num_servers = 2000;
  std::size_t max_sessions_per_server = 4;
};

/// Greedy assignment by predicted FPS gain. Requires
/// method.CanPredictFps(). Returns one colocation per server (possibly
/// empty). CHECK-fails if fleet capacity < number of requests.
std::vector<core::Colocation> AssignByPredictedFps(
    const Methodology& method, const core::FeatureBuilder& features,
    std::span<const core::SessionRequest> requests,
    const AssignmentOptions& options);

/// VBP worst-fit: each request lands on the server with the largest
/// remaining capacity that still has a session slot.
std::vector<core::Colocation> AssignWorstFit(
    const baselines::VbpModel& vbp, const core::FeatureBuilder& features,
    std::span<const core::SessionRequest> requests,
    const AssignmentOptions& options);

/// Ground-truth frame rate of every assigned session, server by server
/// and each server's sessions in that server's own order (empty servers
/// contribute nothing). Memoizes one solve per distinct colocation
/// multiset (core::ColocationHash, confirmed by core::MatchColocation).
std::vector<double> EvaluateAssignment(
    const core::ColocationLab& lab,
    std::span<const core::Colocation> servers);

}  // namespace gaugur::sched
