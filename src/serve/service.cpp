#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/dag_builder.hpp"
#include "failure/scenario.hpp"
#include "routing/evaluator.hpp"
#include "util/require.hpp"

namespace coyote::serve {

namespace json = util::json;

namespace {

json::Value envelope(long long seq, const json::Value& request) {
  json::Value resp = json::Value::object();
  resp["seq"] = static_cast<long>(seq);
  if (request.isObject()) {
    if (const json::Value* id = request.find("id")) resp["id"] = *id;
    if (const json::Value* op = request.find("op")) {
      if (op->isString()) resp["op"] = op->asString();
    }
  }
  return resp;
}

json::Value errorResponse(long long seq, const json::Value& request,
                          const std::string& what) {
  json::Value resp = envelope(seq, request);
  resp["ok"] = false;
  resp["error"] = what;
  return resp;
}

/// The request's member, or a thrown client-facing error.
const json::Value& member(const json::Value& request, const char* key) {
  const json::Value* v = request.find(key);
  if (v == nullptr) {
    throw std::invalid_argument(std::string("missing '") + key + "' member");
  }
  return *v;
}

}  // namespace

TeService::TeService(Graph g, tm::TrafficMatrix base_tm, ServeOptions opt)
    : g_(std::move(g)),
      dags_(core::augmentedDagsShared(g_)),
      opt_(std::move(opt)),
      schemes_(opt_.schemes.empty()
                   ? te::SchemeRegistry::builtin().defaults()
                   : opt_.schemes) {
  require(std::isfinite(opt_.margin) && opt_.margin >= 1.0,
          "margin must be finite and >= 1");
  require(!schemes_.empty(), "empty scheme list");
  require(base_tm.numNodes() == g_.numNodes(),
          "base matrix / graph node count mismatch");
  state_.pool = demandPool(base_tm, opt_.margin);
  state_.base = std::move(base_tm);
  state_.margin = opt_.margin;
  state_.intact = schemeConfigs(state_);
  engine_ = std::make_unique<routing::OptuEngine>(g_, opt_.coyote.lp);
}

TeService::~TeService() = default;

std::shared_ptr<const std::vector<tm::TrafficMatrix>> TeService::demandPool(
    const tm::TrafficMatrix& base, double margin) const {
  // An overflow (say, two scale-1e300 events) is an error response, not
  // an inf that poisons every later LP right-hand side. The box's upper
  // corner bounds the base matrix and every pool entry.
  const tm::DemandBounds box = tm::marginBounds(base, margin);
  if (!std::isfinite(box.hi.maxEntry())) {
    throw std::invalid_argument(
        "non-finite demand box: the base matrix times the margin "
        "overflows");
  }
  // So is an underflow (say, a scale of 1e-320): entries that are zero or
  // subnormal leave no demand the LPs can see, every scheme would answer
  // ratio 0 and every reoptimize fail, and no later scale recovers a 0.
  if (!(base.maxEntry() >= std::numeric_limits<double>::min())) {
    throw std::invalid_argument(
        "zero demand matrix: no entry of the base matrix is a positive "
        "normal number");
  }
  return std::make_shared<const std::vector<tm::TrafficMatrix>>(
      tm::cornerPool(box, opt_.pool));
}

std::shared_ptr<const std::vector<std::optional<routing::RoutingConfig>>>
TeService::schemeConfigs(
    const State& state,
    const std::vector<std::optional<routing::RoutingConfig>>* warm_from,
    int* saved) const {
  return std::make_shared<
      const std::vector<std::optional<routing::RoutingConfig>>>(
      failure::intactConfigs(g_, dags_, state.base, schemes_, opt_.coyote,
                             tm::marginBounds(state.base, state.margin),
                             *state.pool, warm_from, saved));
}

failure::FailureOutcome TeService::evaluate(
    const State& state, const std::vector<EdgeId>& failed,
    std::vector<lp::Basis>& bases, const std::vector<double>* floors) {
  bases.resize(state.pool->size());
  return failure::evaluateFailure(g_, *dags_, state.base, *state.pool,
                                  schemes_, *state.intact, {"", failed},
                                  *engine_, &bases, floors);
}

std::vector<std::string> TeService::failedLinks() const {
  std::vector<std::string> out;
  out.reserve(state_.failed.size());
  for (const EdgeId link : state_.failed) {
    out.push_back(failure::linkLabel(g_, link));
  }
  return out;
}

void TeService::addEvalPayload(json::Value& response,
                               const failure::FailureOutcome& ev,
                               const std::vector<EdgeId>& links) const {
  response["disconnected_pairs"] = ev.disconnected_pairs;
  response["evaluated"] = ev.evaluated;
  json::Value failed = json::Value::array();
  for (const EdgeId link : links) {
    failed.push_back(failure::linkLabel(g_, link));
  }
  response["failed"] = std::move(failed);
  if (!ev.evaluated) return;
  json::Value ratios = json::Value::object();
  json::Value unroutable = json::Value::array();
  for (std::size_t i = 0; i < schemes_.size(); ++i) {
    if (ev.routable[i]) {
      ratios[schemes_[i]->key()] = ev.ratio[i];
    } else {
      unroutable.push_back(schemes_[i]->key());
    }
  }
  response["ratios"] = std::move(ratios);
  response["unroutable"] = std::move(unroutable);
}

EdgeId TeService::parseLink(const json::Value& link) const {
  if (!link.isArray() || link.asArray().size() != 2 ||
      !link.asArray()[0].isString() || !link.asArray()[1].isString()) {
    throw std::invalid_argument(
        "a link is a two-element array of node names: [\"A\",\"B\"]");
  }
  const std::string& a = link.asArray()[0].asString();
  const std::string& b = link.asArray()[1].asString();
  const std::optional<NodeId> s = g_.findNode(a);
  const std::optional<NodeId> t = g_.findNode(b);
  if (!s.has_value()) throw std::invalid_argument("unknown node: " + a);
  if (!t.has_value()) throw std::invalid_argument("unknown node: " + b);
  const std::optional<EdgeId> e = g_.findEdge(*s, *t);
  if (!e.has_value()) {
    throw std::invalid_argument("no link between " + a + " and " + b);
  }
  // Canonical link id: the lower id of the two directions.
  const EdgeId rev = g_.edge(*e).reverse;
  return rev != kInvalidEdge && rev < *e ? rev : *e;
}

json::Value TeService::handleWhatIf(const json::Value& request,
                                    long long seq) {
  const json::Value& links = member(request, "links");
  if (!links.isArray()) {
    throw std::invalid_argument("'links' must be an array of links");
  }
  // The hypothetical failure set: current state plus the queried links.
  std::vector<EdgeId> combined = state_.failed;
  for (const json::Value& link : links.asArray()) {
    combined.push_back(parseLink(link));
  }
  std::sort(combined.begin(), combined.end());
  combined.erase(std::unique(combined.begin(), combined.end()),
                 combined.end());
  // A scratch copy of the memo, discarded afterwards: a what-if never
  // changes a later answer. The combined set contains the state's failed
  // links, and OPTU never decreases as links fail, so the state's OPTU
  // values are floors that let matrices which cannot raise a ratio go
  // unsolved.
  std::vector<lp::Basis> bases = state_.bases;
  const failure::FailureOutcome ev =
      evaluate(state_, combined, bases,
               state_.optu.empty() ? nullptr : &state_.optu);
  json::Value resp = envelope(seq, request);
  resp["ok"] = true;
  addEvalPayload(resp, ev, combined);
  return resp;
}

json::Value TeService::dispatch(const json::Value& request, long long seq) {
  if (!request.isObject()) {
    throw std::invalid_argument("a request is a JSON object");
  }
  const json::Value& op_value = member(request, "op");
  if (!op_value.isString()) {
    throw std::invalid_argument("'op' must be a string");
  }
  const std::string& op = op_value.asString();
  json::Value resp = envelope(seq, request);

  if (op == "state") {
    resp["ok"] = true;
    resp["nodes"] = g_.numNodes();
    resp["links"] = static_cast<int>(failure::physicalLinks(g_).size());
    resp["margin"] = state_.margin;
    resp["pool_size"] = poolSize();
    resp["events"] = static_cast<long>(seq_);
    json::Value keys = json::Value::array();
    for (const te::Scheme* s : schemes_) keys.push_back(s->key());
    resp["schemes"] = std::move(keys);
    json::Value failed = json::Value::array();
    for (const std::string& label : failedLinks()) failed.push_back(label);
    resp["failed"] = std::move(failed);
    return resp;
  }

  if (op == "what-if") {
    return handleWhatIf(request, seq);
  }

  // Every other op changes the state: it builds the next state from a
  // copy, and commits it (and the memo its evaluation updated) only when
  // every step succeeded.
  State next = state_;
  int saved = 0;
  if (op == "demand") {
    const json::Value* scale = request.find("scale");
    const json::Value* set = request.find("set");
    if (scale == nullptr && set == nullptr) {
      throw std::invalid_argument("'demand' needs 'scale' and/or 'set'");
    }
    if (scale != nullptr &&
        (!scale->isNumber() || !(scale->asNumber() > 0.0))) {
      throw std::invalid_argument("'scale' must be a positive number");
    }
    std::vector<std::pair<std::pair<NodeId, NodeId>, double>> entries;
    if (set != nullptr) {
      if (!set->isArray()) {
        throw std::invalid_argument(
            "'set' must be an array of [src,dst,value] entries");
      }
      for (const json::Value& entry : set->asArray()) {
        if (!entry.isArray() || entry.asArray().size() != 3 ||
            !entry.asArray()[0].isString() ||
            !entry.asArray()[1].isString() ||
            !entry.asArray()[2].isNumber()) {
          throw std::invalid_argument(
              "a 'set' entry is [\"src\",\"dst\",value]");
        }
        const std::string& a = entry.asArray()[0].asString();
        const std::string& b = entry.asArray()[1].asString();
        const double v = entry.asArray()[2].asNumber();
        const std::optional<NodeId> s = g_.findNode(a);
        const std::optional<NodeId> t = g_.findNode(b);
        if (!s.has_value()) throw std::invalid_argument("unknown node: " + a);
        if (!t.has_value()) throw std::invalid_argument("unknown node: " + b);
        if (*s == *t) {
          throw std::invalid_argument("demand src == dst: " + a);
        }
        if (!(v >= 0.0)) {
          throw std::invalid_argument("demand value must be >= 0");
        }
        entries.push_back({{*s, *t}, v});
      }
    }
    if (scale != nullptr) next.base.scale(scale->asNumber());
    for (const auto& [pair, v] : entries) {
      next.base.set(pair.first, pair.second, v);
    }
    next.pool = demandPool(next.base, next.margin);
    resp["ok"] = true;
  } else if (op == "link") {
    const EdgeId link = parseLink(member(request, "link"));
    const json::Value* up = request.find("up");
    const bool restore = up != nullptr && up->isBool() && up->asBool();
    std::vector<EdgeId>& failed = next.failed;
    const auto it = std::lower_bound(failed.begin(), failed.end(), link);
    const bool already = it != failed.end() && *it == link;
    const std::string label = failure::linkLabel(g_, link);
    if (restore) {
      if (!already) {
        throw std::invalid_argument("link " + label + " is not failed");
      }
      failed.erase(it);
    } else {
      if (already) {
        throw std::invalid_argument("link " + label + " is already failed");
      }
      failed.insert(it, link);
    }
    resp["ok"] = true;
    resp["link"] = label;
    resp["up"] = restore;
  } else if (op == "margin") {
    const json::Value& value = member(request, "value");
    if (!value.isNumber() || !std::isfinite(value.asNumber()) ||
        !(value.asNumber() >= 1.0)) {
      throw std::invalid_argument("'value' must be a finite number >= 1");
    }
    next.margin = value.asNumber();
    next.pool = demandPool(next.base, next.margin);
    resp["ok"] = true;
    resp["margin"] = next.margin;
  } else if (op == "reoptimize") {
    // A warm restart sits next to the optimum (base and margin usually
    // moved a little), so the patience early stop banks most of the
    // budget.
    next.intact = schemeConfigs(next, state_.intact.get(), &saved);
    resp["ok"] = true;
  } else {
    throw std::invalid_argument("unknown op: " + op);
  }
  // Every state-changing event answers with the resident configurations
  // evaluated on the next state's failure set, each pool matrix solved
  // from its memo basis. The new demand box (and with it the memo) is
  // kept only if no pool matrix drops out of the optimizer's pool
  // (routing::kMinNormalization): a reoptimize would fail on it.
  const failure::FailureOutcome ev =
      evaluate(next, next.failed, next.bases, nullptr);
  if (op == "demand" || op == "margin") {
    for (std::size_t j = 0; j < ev.optu.size(); ++j) {
      if (!(ev.optu[j] > routing::kMinNormalization)) {
        std::ostringstream msg;
        msg << "demand too small: pool matrix " << j << " has OPTU "
            << ev.optu[j] << " <= " << routing::kMinNormalization
            << ", which the optimizer's pool drops";
        throw std::invalid_argument(msg.str());
      }
    }
  }
  next.optu = ev.evaluated ? ev.optu : std::vector<double>{};
  state_ = std::move(next);
  reopt_saved_iters_ += saved;
  addEvalPayload(resp, ev, state_.failed);
  return resp;
}

json::Value TeService::handle(const json::Value& request) {
  const long long seq = ++seq_;
  try {
    return dispatch(request, seq);
  } catch (const std::exception& e) {
    return errorResponse(seq, request, e.what());
  }
}

std::string TeService::handleLine(const std::string& line) {
  json::Value request;
  try {
    request = json::parse(line);
  } catch (const json::Error& e) {
    return errorResponse(++seq_, json::Value(), e.what()).dump(0);
  }
  return handle(request).dump(0);
}

std::vector<std::string> TeService::handleScript(
    const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) out.push_back(handleLine(line));
  return out;
}

}  // namespace coyote::serve
