#include "core/portal.hpp"

#include <iomanip>
#include <memory>
#include <sstream>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace griphon::core {

namespace {

/// Count a portal-level rejection, labeled by customer and reason, so the
/// carrier can see per-tenant isolation working (or a tenant hammering
/// its quota) straight from the metrics.
void count_reject(GriphonController* controller, CustomerId customer,
                  const char* reason) {
  if (telemetry::Telemetry* t = controller->model().telemetry())
    t->metrics()
        .counter("griphon_portal_rejects_total",
                 "Customer requests rejected at the portal",
                 {{"customer", std::to_string(customer.value())},
                  {"reason", reason}})
        ->inc();
}

}  // namespace

CustomerPortal::CustomerPortal(GriphonController* controller,
                               CustomerId customer, DataRate bandwidth_quota)
    : controller_(controller), customer_(customer), quota_(bandwidth_quota) {}

DataRate CustomerPortal::provisioned() const {
  DataRate total{};
  for (const ConnectionId id : controller_->connections_of(customer_))
    total += controller_->connection(id).rate;
  return total;
}

void CustomerPortal::connect(MuxponderId src_site, MuxponderId dst_site,
                             DataRate rate, ProtectionMode protection,
                             SetupCallback cb, ServiceTier tier) {
  if (provisioned() + rate > quota_) {
    count_reject(controller_, customer_, "quota");
    cb(Error{ErrorCode::kPermissionDenied,
             "portal: request exceeds bandwidth quota"});
    return;
  }
  ConnectionRequest req;
  req.customer = customer_;
  req.src_site = src_site;
  req.dst_site = dst_site;
  req.rate = rate;
  req.protection = protection;
  req.tier = tier;
  controller_->request_connection(req, std::move(cb));
}

void CustomerPortal::disconnect(ConnectionId id, DoneCallback cb) {
  const Connection* found = controller_->find_connection(id);
  if (found == nullptr) {
    cb(Status{ErrorCode::kNotFound, "portal: unknown connection"});
    return;
  }
  const Connection& c = *found;
  if (c.customer != customer_) {
    count_reject(controller_, customer_, "isolation");
    cb(Status{ErrorCode::kPermissionDenied,
              "portal: connection belongs to another customer"});
    return;
  }
  controller_->release_connection(id, std::move(cb));
}

CustomerPortal::Decomposition CustomerPortal::decompose(DataRate rate) {
  Decomposition d;
  std::int64_t remaining = rate.in_bps();
  const std::int64_t wave = rates::k10G.in_bps();
  const std::int64_t odu = rates::k1G.in_bps();
  d.wavelengths_10g = static_cast<int>(remaining / wave);
  remaining -= static_cast<std::int64_t>(d.wavelengths_10g) * wave;
  if (remaining == 0) return d;
  // A big remainder wastes less as a wave of its own than as 8-9 ODUs that
  // would consume as much OTN capacity as a whole wavelength anyway.
  if (remaining >= 8 * odu) {
    ++d.wavelengths_10g;
    return d;
  }
  if (remaining <= 2 * odu) {
    d.odu_1g = static_cast<int>((remaining + odu - 1) / odu);
    return d;
  }
  d.odu_flex = DataRate{remaining};
  return d;
}

void CustomerPortal::connect_bundle(MuxponderId src_site,
                                    MuxponderId dst_site, DataRate rate,
                                    ProtectionMode protection,
                                    BundleCallback cb) {
  const Decomposition d = decompose(rate);
  if (provisioned() + d.total() > quota_) {
    count_reject(controller_, customer_, "quota");
    cb(Error{ErrorCode::kPermissionDenied,
             "portal: bundle exceeds bandwidth quota"});
    return;
  }

  struct Pending {
    CustomerPortal* portal;
    Bundle bundle;
    std::vector<DataRate> to_request;
    std::size_t next = 0;
    BundleCallback cb;
    MuxponderId src, dst;
    ProtectionMode protection;
  };
  auto state = std::make_shared<Pending>();
  state->portal = this;
  state->bundle.id = bundle_ids_.next();
  state->bundle.requested = rate;
  state->cb = std::move(cb);
  state->src = src_site;
  state->dst = dst_site;
  state->protection = protection;
  for (int i = 0; i < d.wavelengths_10g; ++i)
    state->to_request.push_back(rates::k10G);
  for (int i = 0; i < d.odu_1g; ++i)
    state->to_request.push_back(rates::k1G);
  if (!d.odu_flex.zero()) state->to_request.push_back(d.odu_flex);

  // Parts are requested sequentially so that a quota/capacity failure stops
  // the train early; rollback releases whatever got built.
  struct Driver {
    static void step(std::shared_ptr<Pending> st) {
      if (st->next >= st->to_request.size()) {
        const BundleId id = st->bundle.id;
        st->portal->bundles_[id] = std::move(st->bundle);
        st->cb(id);
        return;
      }
      ConnectionRequest req;
      req.customer = st->portal->customer_;
      req.src_site = st->src;
      req.dst_site = st->dst;
      req.rate = st->to_request[st->next];
      req.protection = st->protection;
      st->portal->controller_->request_connection(
          req, [st](Result<ConnectionId> r) {
            if (r.ok()) {
              st->bundle.parts.push_back(r.value());
              ++st->next;
              step(st);
              return;
            }
            // Unwind the parts already built.
            unwind(st, r.error());
          });
    }
    static void unwind(std::shared_ptr<Pending> st, Error error) {
      if (st->bundle.parts.empty()) {
        st->cb(std::move(error));
        return;
      }
      const ConnectionId id = st->bundle.parts.back();
      st->bundle.parts.pop_back();
      st->portal->controller_->release_connection(
          id, [st, error](Status) { unwind(st, error); });
    }
  };
  Driver::step(state);
}

void CustomerPortal::disconnect_bundle(BundleId id, DoneCallback cb) {
  const auto it = bundles_.find(id);
  if (it == bundles_.end()) {
    cb(Status{ErrorCode::kNotFound, "portal: unknown bundle"});
    return;
  }
  auto parts = std::make_shared<std::vector<ConnectionId>>(it->second.parts);
  bundles_.erase(it);
  auto remaining = std::make_shared<std::size_t>(parts->size());
  auto first_error = std::make_shared<Status>(Status::success());
  if (parts->empty()) {
    cb(Status::success());
    return;
  }
  for (const ConnectionId part : *parts) {
    controller_->release_connection(
        part, [remaining, first_error, cb](Status s) {
          if (!s.ok() && first_error->ok()) *first_error = s;
          if (--*remaining == 0) cb(*first_error);
        });
  }
}

const CustomerPortal::Bundle& CustomerPortal::bundle(BundleId id) const {
  const auto it = bundles_.find(id);
  if (it == bundles_.end())
    throw std::out_of_range("portal: unknown bundle");
  return it->second;
}

std::vector<CustomerPortal::ConnectionView> CustomerPortal::list() const {
  std::vector<ConnectionView> out;
  const NetworkModel& model = std::as_const(*controller_).model();
  for (const ConnectionId id : controller_->connections_of(customer_)) {
    const Connection& c = controller_->connection(id);
    ConnectionView v;
    v.id = id;
    const auto* src = model.site_by_nte(c.src_site);
    const auto* dst = model.site_by_nte(c.dst_site);
    v.src_site = src != nullptr ? src->name : "?";
    v.dst_site = dst != nullptr ? dst->name : "?";
    v.rate = c.rate;
    v.state = to_string(c.state);
    v.service = c.kind == ConnectionKind::kWavelength ? "wavelength"
                                                      : "sub-wavelength";
    v.total_outage_seconds = to_seconds(c.total_outage);
    v.restorations = c.restorations;
    out.push_back(std::move(v));
  }
  return out;
}

std::string CustomerPortal::render_dashboard() const {
  std::ostringstream os;
  os << "+-- GRIPhoN BoD portal -- customer " << customer_.value()
     << " --------------------------------+\n";
  os << "| quota " << std::setw(6) << quota_.in_gbps() << "G   provisioned "
     << std::setw(6) << provisioned().in_gbps() << "G\n";
  os << "+----+----------------+----------------+--------+----------------"
        "+-------+\n";
  os << "| id | from           | to             | rate   | status         "
        "| rest. |\n";
  os << "+----+----------------+----------------+--------+----------------"
        "+-------+\n";
  for (const auto& v : list()) {
    std::string status = v.state;
    if (v.total_outage_seconds > 0)
      status += " (" + std::to_string(static_cast<int>(
                            v.total_outage_seconds)) + "s out)";
    os << "| " << std::setw(2) << v.id.value() << " | " << std::setw(14)
       << std::left << v.src_site.substr(0, 14) << std::right << " | "
       << std::setw(14) << std::left << v.dst_site.substr(0, 14)
       << std::right << " | " << std::setw(5) << v.rate.in_gbps() << "G | "
       << std::setw(14) << std::left << status.substr(0, 14) << std::right
       << " | " << std::setw(5) << v.restorations << " |\n";
  }
  os << "+----+----------------+----------------+--------+----------------"
        "+-------+\n";
  return os.str();
}

}  // namespace griphon::core
