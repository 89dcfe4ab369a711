#include "ems/ems_server.hpp"

#include <utility>

#include "telemetry/telemetry.hpp"

namespace griphon::ems {

namespace {

template <typename T>
T* find_device(const FlatMap<T*>& map, std::uint64_t id) {
  T* const* device = map.find(id);
  return device == nullptr ? nullptr : *device;
}

template <typename T>
void register_device(FlatMap<T*>& map, T* device) {
  *map.try_emplace(device->id().value()).first = device;
}

}  // namespace

EmsServer::EmsServer(sim::Engine* engine, proto::Endpoint* endpoint,
                     EmsLatencyProfile profile, std::string name)
    : engine_(engine), endpoint_(endpoint), profile_(profile),
      name_(std::move(name)) {
  endpoint_->on_receive(
      [this](const proto::Bytes& bytes) { handle_frame(bytes); });
}

void EmsServer::manage_fxc(fxc::Fxc* device) {
  register_device(fxcs_, device);
}

void EmsServer::manage_roadm(dwdm::Roadm* device) {
  register_device(roadms_, device);
  device->set_alarm_sink([this](const Alarm& a) { forward_alarm(a); });
}

void EmsServer::manage_ot(dwdm::Transponder* device) {
  register_device(ots_, device);
}

void EmsServer::manage_regen(dwdm::Regenerator* device) {
  register_device(regens_, device);
}

void EmsServer::manage_nte(dwdm::Muxponder* device) {
  register_device(ntes_, device);
}

void EmsServer::manage_otn(otn::OtnLayer* layer) { otn_ = layer; }

std::string EmsServer::metric_domain() const {
  std::string domain = name_;
  if (domain.size() > 4 && domain.compare(domain.size() - 4, 4, "-ems") == 0)
    domain.resize(domain.size() - 4);
  for (char& c : domain)
    if (c == '-') c = '_';
  return domain;
}

void EmsServer::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    commands_total_ = nullptr;
    alarms_forwarded_total_ = nullptr;
    cache_evictions_total_ = nullptr;
    crashes_total_ = nullptr;
    queue_wait_seconds_ = nullptr;
    task_seconds_ = nullptr;
    return;
  }
  const std::string prefix = "griphon_ems_" + metric_domain() + "_";
  auto& m = telemetry_->metrics();
  commands_total_ =
      m.counter(prefix + "commands_total", "Commands executed by this EMS");
  alarms_forwarded_total_ = m.counter(prefix + "alarms_forwarded_total",
                                      "Device alarms forwarded upstream");
  cache_evictions_total_ =
      m.counter(prefix + "cache_evictions_total",
                "Response-cache entries evicted (LRU past capacity)");
  crashes_total_ =
      m.counter(prefix + "crashes_total", "EMS crash/restart events");
  queue_wait_seconds_ =
      m.histogram(prefix + "queue_wait_seconds",
                  "Time a command waits for its element dialogue");
  task_seconds_ = m.histogram(prefix + "task_seconds",
                              "Management overhead + optical task time");
}

void EmsServer::forward_alarm(const Alarm& alarm) {
  const SimTime delay = profile_.alarm_notify.sample(engine_->rng());
  const proto::Bytes frame =
      proto::encode_frame(0, proto::Message{proto::AlarmEvent{alarm}});
  engine_->schedule(delay, [this, frame]() {
    if (down_) return;  // a crashed EMS notifies no one
    endpoint_->send(frame);
  });
  if (alarms_forwarded_total_ != nullptr) alarms_forwarded_total_->inc();
}

void EmsServer::crash_restart(SimTime restart_after) {
  down_ = true;
  ++crashes_;
  ++boot_epoch_;  // mid-dialogue completions from before the crash evaporate
  element_index_.clear();
  elements_.clear();
  commands_.clear();
  free_command_ = kNone;
  queue_depth_ = 0;
  cache_flush();
  if (crashes_total_ != nullptr) crashes_total_->inc();
  if (telemetry_ != nullptr)
    telemetry_->event(telemetry::Severity::kWarn, "ems", name_,
                      "crashed; restart in " +
                          std::to_string(to_seconds(restart_after)) + "s");
  engine_->schedule(restart_after, [this]() {
    down_ = false;
    if (telemetry_ != nullptr)
      telemetry_->event(telemetry::Severity::kInfo, "ems", name_,
                        "restarted");
    Alarm a;
    a.type = AlarmType::kEmsRestart;
    a.raised_at = engine_->now();
    a.source = name_;
    a.detail = "ems restarted; device state may have drifted";
    forward_alarm(a);
  });
}

void EmsServer::set_response_cache_capacity(std::size_t capacity) {
  cache_capacity_ = capacity;
  cache_trim();
}

const proto::Response* EmsServer::cache_lookup(std::uint64_t id) {
  const std::uint32_t* n = cache_index_.find(id);
  if (n == nullptr) return nullptr;
  // Refresh the entry's LRU recency — a retrying id is a hot id.
  cache_unlink(*n);
  cache_link_hottest(*n);
  return &cache_nodes_[*n].response;
}

void EmsServer::cache_insert(std::uint64_t id, proto::Response r) {
  if (const std::uint32_t* hit = cache_index_.find(id)) {
    cache_nodes_[*hit].response = std::move(r);
    cache_unlink(*hit);
    cache_link_hottest(*hit);
    return;
  }
  if (cache_capacity_ == 0) {  // nothing is kept: the entry is evicted
    ++cache_evictions_;
    if (cache_evictions_total_ != nullptr) cache_evictions_total_->inc();
    return;
  }
  std::uint32_t n = kNone;
  if (cache_index_.size() >= cache_capacity_) {
    n = cache_evict_coldest();
  } else if (cache_free_ != kNone) {
    n = cache_free_;
    cache_free_ = cache_nodes_[n].next;
  } else {
    n = static_cast<std::uint32_t>(cache_nodes_.size());
    cache_nodes_.emplace_back();
  }
  CacheNode& node = cache_nodes_[n];
  node.id = id;
  node.response = std::move(r);
  cache_link_hottest(n);
  cache_index_.try_emplace(id, n);
}

void EmsServer::cache_trim() {
  while (cache_index_.size() > cache_capacity_) {
    const std::uint32_t n = cache_evict_coldest();
    cache_nodes_[n].next = cache_free_;
    cache_free_ = n;
  }
}

std::uint32_t EmsServer::cache_evict_coldest() {
  const std::uint32_t n = cache_coldest_;
  cache_unlink(n);
  cache_index_.erase(cache_nodes_[n].id);
  ++cache_evictions_;
  if (cache_evictions_total_ != nullptr) cache_evictions_total_->inc();
  return n;
}

void EmsServer::cache_unlink(std::uint32_t n) {
  CacheNode& node = cache_nodes_[n];
  (node.prev == kNone ? cache_coldest_ : cache_nodes_[node.prev].next) =
      node.next;
  (node.next == kNone ? cache_hottest_ : cache_nodes_[node.next].prev) =
      node.prev;
  node.prev = node.next = kNone;
}

void EmsServer::cache_link_hottest(std::uint32_t n) {
  CacheNode& node = cache_nodes_[n];
  node.prev = cache_hottest_;
  node.next = kNone;
  (cache_hottest_ == kNone ? cache_coldest_ : cache_nodes_[cache_hottest_].next) =
      n;
  cache_hottest_ = n;
}

void EmsServer::cache_flush() {
  cache_index_.clear();
  cache_nodes_.clear();
  cache_coldest_ = cache_hottest_ = cache_free_ = kNone;
}

std::uint64_t EmsServer::device_key(const proto::Message& m) {
  // Shared with the controller's DAG executor, which pre-orders
  // same-element commands using the same key.
  return proto::element_key(m);
}

std::uint32_t EmsServer::element_for(std::uint64_t key) {
  const auto [slot, added] = element_index_.try_emplace(
      key, static_cast<std::uint32_t>(elements_.size()));
  if (added) elements_.emplace_back();
  return *slot;
}

void EmsServer::handle_frame(const proto::Bytes& bytes) {
  if (down_) return;  // crashed: frames fall on the floor, clients time out
  auto frame = proto::decode_frame(bytes);
  if (!frame.ok()) {
    if (telemetry_ != nullptr)
      telemetry_->event(telemetry::Severity::kWarn, "ems", name_,
                        "bad frame dropped: " + frame.error().message());
    return;
  }
  const std::uint64_t id = frame.value().request_id;
  // Retransmission? Replay the cached response without re-executing.
  if (const proto::Response* cached = cache_lookup(id)) {
    endpoint_->send(proto::encode_frame(id, proto::Message{*cached}));
    if (telemetry_ != nullptr)
      telemetry_->event(telemetry::Severity::kInfo, "ems", name_,
                        "replayed cached response to request " +
                            std::to_string(id));
    return;
  }
  const std::uint32_t e = element_for(device_key(frame.value().message));
  Element& element = elements_[e];
  // Already executing or queued (retry raced the dialogue)? Drop it. A
  // request id names one command, so only its own element can hold it.
  if (element.busy && element.in_flight == id) return;
  for (std::uint32_t n = element.head; n != kNone; n = commands_[n].next)
    if (commands_[n].cmd.request_id == id) return;
  std::uint32_t n = free_command_;
  if (n != kNone) {
    free_command_ = commands_[n].next;
  } else {
    n = static_cast<std::uint32_t>(commands_.size());
    commands_.emplace_back();
  }
  CommandNode& node = commands_[n];
  node.cmd.request_id = id;
  node.cmd.message = std::move(frame.value().message);
  node.cmd.enqueued_at = engine_->now();
  node.next = kNone;
  (element.tail == kNone ? element.head : commands_[element.tail].next) = n;
  element.tail = n;
  ++queue_depth_;
  pump(e);
}

void EmsServer::pump(std::uint32_t e) {
  Element& element = elements_[e];
  if (element.busy || element.head == kNone) return;
  const std::uint32_t n = element.head;
  element.head = commands_[n].next;
  if (element.head == kNone) element.tail = kNone;
  QueuedCommand cmd = std::move(commands_[n].cmd);
  commands_[n].next = free_command_;
  free_command_ = n;
  --queue_depth_;
  element.busy = true;
  element.in_flight = cmd.request_id;
  // Management-plane overhead, then the optical task, then the reply.
  SimTime overhead = profile_.command_overhead.sample(engine_->rng());
  SimTime task = task_latency(cmd.message);
  const std::uint64_t epoch = boot_epoch_;
  if (fault_hook_ != nullptr) {
    const double scale = fault_hook_->latency_scale(name_);
    if (scale != 1.0) {
      overhead = from_seconds(to_seconds(overhead) * scale);
      task = from_seconds(to_seconds(task) * scale);
    }
    const Status injected = fault_hook_->on_command(name_, cmd.message);
    if (!injected.ok()) {
      // Transient NACK: the management plane rejects after its overhead,
      // without touching the device.
      if (telemetry_ != nullptr)
        telemetry_->event(telemetry::Severity::kWarn, "ems", name_,
                          "injected NACK: " + injected.error().message());
      engine_->schedule(overhead, [this, id = cmd.request_id, e, epoch,
                                   injected]() {
        if (epoch != boot_epoch_) return;  // EMS crashed meanwhile
        respond(id, injected, 0);
        dialogue_done(e);
      });
      return;
    }
  }
  if (queue_wait_seconds_ != nullptr) {
    queue_wait_seconds_->observe(to_seconds(engine_->now() - cmd.enqueued_at));
    task_seconds_->observe(to_seconds(overhead + task));
  }
  engine_->schedule(overhead + task,
                    [this, cmd = std::move(cmd), e, epoch]() {
                      if (epoch != boot_epoch_) return;  // crashed mid-dialogue
                      execute(cmd);
                      dialogue_done(e);
                    });
}

void EmsServer::dialogue_done(std::uint32_t e) {
  elements_[e].busy = false;
  pump(e);
}

void EmsServer::execute(const QueuedCommand& cmd) {
  std::uint64_t aux = 0;
  const Status status = apply(cmd.message, &aux);
  ++executed_;
  if (commands_total_ != nullptr) commands_total_->inc();
  respond(cmd.request_id, status, aux);
}

SimTime EmsServer::task_latency(const proto::Message& m) {
  auto& rng = engine_->rng();
  struct Visitor {
    EmsLatencyProfile& p;
    Rng& rng;
    SimTime operator()(const proto::Response&) { return SimTime{}; }
    SimTime operator()(const proto::FxcConnect&) {
      return p.fxc_connect.sample(rng);
    }
    SimTime operator()(const proto::FxcDisconnect&) {
      return p.fxc_disconnect.sample(rng);
    }
    SimTime operator()(const proto::RoadmExpress& m) {
      return m.engage ? p.roadm_express.sample(rng)
                      : p.roadm_express_release.sample(rng);
    }
    SimTime operator()(const proto::RoadmAddDrop& m) {
      return m.engage ? p.roadm_add_drop.sample(rng)
                      : p.roadm_add_drop_release.sample(rng);
    }
    SimTime operator()(const proto::OtTune&) { return p.ot_tune.sample(rng); }
    SimTime operator()(const proto::OtSetState& m) {
      return m.action == proto::OtSetState::Action::kActivate
                 ? p.ot_state.sample(rng)
                 : p.ot_release.sample(rng);
    }
    SimTime operator()(const proto::RegenEngage& m) {
      return m.engage ? p.regen_engage.sample(rng)
                      : p.regen_release.sample(rng);
    }
    SimTime operator()(const proto::PowerBalance&) {
      return p.power_balance.sample(rng);
    }
    SimTime operator()(const proto::OtnOp&) { return p.otn_op.sample(rng); }
    SimTime operator()(const proto::NtePort& m) {
      return m.engage ? p.nte_port.sample(rng)
                      : p.nte_port_release.sample(rng);
    }
    SimTime operator()(const proto::AlarmEvent&) { return SimTime{}; }
    SimTime operator()(const proto::EmsBatch& m) {
      // One dialogue covers the whole batch: the items' optical tasks run
      // concurrently on their (disjoint) elements, so the batch costs the
      // slowest item, not the sum — that is the point of batching.
      SimTime worst{};
      for (const proto::PowerBalance& item : m.items)
        worst = std::max(worst, (*this)(item));
      return worst;
    }
  };
  return std::visit(Visitor{profile_, rng}, m);
}

Status EmsServer::apply(const proto::Message& m, std::uint64_t* aux) {
  struct Visitor {
    EmsServer& ems;
    std::uint64_t* aux;

    Status operator()(const proto::Response&) {
      return Status{ErrorCode::kInvalidArgument, "ems: response as request"};
    }
    Status operator()(const proto::AlarmEvent&) {
      return Status{ErrorCode::kInvalidArgument, "ems: alarm as request"};
    }
    Status operator()(const proto::FxcConnect& m) {
      auto* d = find_device(ems.fxcs_, m.fxc.value());
      if (d == nullptr)
        return Status{ErrorCode::kNotFound, "ems: unknown FXC"};
      return d->connect(m.port_a, m.port_b);
    }
    Status operator()(const proto::FxcDisconnect& m) {
      auto* d = find_device(ems.fxcs_, m.fxc.value());
      if (d == nullptr)
        return Status{ErrorCode::kNotFound, "ems: unknown FXC"};
      return d->disconnect(m.port);
    }
    Status operator()(const proto::RoadmExpress& m) {
      auto* d = find_device(ems.roadms_, m.roadm.value());
      if (d == nullptr)
        return Status{ErrorCode::kNotFound, "ems: unknown ROADM"};
      return m.engage
                 ? d->configure_express(m.channel, m.degree_in, m.degree_out)
                 : d->release_express(m.channel, m.degree_in, m.degree_out);
    }
    Status operator()(const proto::RoadmAddDrop& m) {
      auto* d = find_device(ems.roadms_, m.roadm.value());
      if (d == nullptr)
        return Status{ErrorCode::kNotFound, "ems: unknown ROADM"};
      return m.engage ? d->configure_add_drop(m.port, m.degree, m.channel)
                      : d->release_add_drop(m.port);
    }
    Status operator()(const proto::OtTune& m) {
      auto* d = find_device(ems.ots_, m.ot.value());
      if (d == nullptr)
        return Status{ErrorCode::kNotFound, "ems: unknown OT"};
      return d->tune(m.channel);
    }
    Status operator()(const proto::OtSetState& m) {
      auto* d = find_device(ems.ots_, m.ot.value());
      if (d == nullptr)
        return Status{ErrorCode::kNotFound, "ems: unknown OT"};
      switch (m.action) {
        case proto::OtSetState::Action::kActivate:
          return d->activate();
        case proto::OtSetState::Action::kDeactivate:
          return d->deactivate();
        case proto::OtSetState::Action::kReset:
          return d->reset();
      }
      return Status{ErrorCode::kInvalidArgument, "ems: bad OT action"};
    }
    Status operator()(const proto::RegenEngage& m) {
      auto* d = find_device(ems.regens_, m.regen.value());
      if (d == nullptr)
        return Status{ErrorCode::kNotFound, "ems: unknown REGEN"};
      return m.engage
                 ? d->engage(m.upstream_channel, m.downstream_channel)
                 : d->release();
    }
    Status operator()(const proto::PowerBalance&) {
      // Pure optical task: the latency *is* the operation.
      return Status::success();
    }
    Status operator()(const proto::OtnOp& m) {
      if (ems.otn_ == nullptr)
        return Status{ErrorCode::kNotFound, "ems: no OTN layer managed"};
      switch (m.op) {
        case proto::OtnOp::Op::kCreate: {
          otn::OtnLayer::CircuitSpec spec;
          spec.customer = m.customer;
          spec.src = m.src;
          spec.dst = m.dst;
          spec.rate = DataRate{m.rate_bps};
          spec.protect = m.protect;
          auto got = ems.otn_->create_circuit(spec);
          if (!got.ok()) return got.error();
          *aux = got.value().value();
          return Status::success();
        }
        case proto::OtnOp::Op::kRelease:
          return ems.otn_->release_circuit(m.circuit);
        case proto::OtnOp::Op::kActivateBackup:
          return ems.otn_->activate_backup(m.circuit);
        case proto::OtnOp::Op::kRevert:
          return ems.otn_->revert_to_primary(m.circuit);
      }
      return Status{ErrorCode::kInvalidArgument, "ems: bad OTN op"};
    }
    Status operator()(const proto::NtePort& m) {
      auto* d = find_device(ems.ntes_, m.nte.value());
      if (d == nullptr)
        return Status{ErrorCode::kNotFound, "ems: unknown NTE"};
      return m.engage ? d->claim_client_port(m.port)
                      : d->release_client_port(m.port);
    }
    Status operator()(const proto::EmsBatch& m) {
      // Apply every coalesced item; the aggregated response carries the
      // first failure (items are stateless, so no partial-state concern).
      Status first = Status::success();
      for (const proto::PowerBalance& item : m.items) {
        const Status s = (*this)(item);
        if (first.ok() && !s.ok()) first = s;
      }
      return first;
    }
  };
  return std::visit(Visitor{*this, aux}, m);
}

void EmsServer::respond(std::uint64_t request_id, const Status& status,
                        std::uint64_t aux) {
  proto::Response r;
  r.code = static_cast<std::uint16_t>(status.ok() ? ErrorCode::kNone
                                                  : status.error().code());
  r.message = status.ok() ? std::string{} : status.error().message();
  r.aux = aux;
  endpoint_->send(proto::encode_frame(request_id, proto::Message{r}));
  cache_insert(request_id, std::move(r));
}

}  // namespace griphon::ems
