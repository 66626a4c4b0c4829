//! The bidding framework (Fig. 2): failure models per availability zone,
//! online training, and the bidding loop entry point.

use std::ops::Range;
use std::sync::Arc;

use spot_market::{InstanceType, PoolTable, Price, PriceTrace, Zone};
use spot_model::{FailureModel, FailureModelConfig, FrozenKernel};

use crate::service::ServiceSpec;
use crate::strategy::{
    BidDecision, BidView, BiddingStrategy, Boundary, Decided, PoolWalk, ZoneState,
};

/// A live market observation for one (zone, instance-type) pool, fed to
/// [`BiddingFramework::decide`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MarketSnapshot {
    /// The zone.
    pub zone: Zone,
    /// The instance-type pool within the zone.
    pub instance_type: InstanceType,
    /// Current spot price.
    pub spot_price: Price,
    /// Minutes at the current price.
    pub sojourn_age: u32,
}

/// The availability- and cost-aware bidding framework of Fig. 2: the spot
/// instance failure model (one per zone×type pool) feeding the online
/// bidding module.
pub struct BiddingFramework<S: BiddingStrategy> {
    spec: ServiceSpec,
    strategy: S,
    models: PoolTable<FailureModel>,
}

impl<S: BiddingStrategy> BiddingFramework<S> {
    /// A framework for `spec` driven by `strategy`.
    pub fn new(spec: ServiceSpec, strategy: S) -> Self {
        BiddingFramework {
            spec,
            strategy,
            models: PoolTable::new(),
        }
    }

    /// The service spec.
    pub fn spec(&self) -> &ServiceSpec {
        &self.spec
    }

    /// The strategy's display name.
    pub fn strategy_name(&self) -> String {
        self.strategy.name()
    }

    /// Re-target the minimum capacity-weighted fleet strength the next
    /// decision must reach (the auto-scaler's control input). `0` disables
    /// the constraint.
    pub fn set_min_strength(&mut self, strength: u32) {
        self.spec.min_strength = strength;
    }

    /// Adopt a pre-trained shared kernel for the `(zone, ty)` pool (the
    /// [`crate::ModelStore`] consumption path): the framework wraps it in
    /// a [`FailureModel`] carrying the on-demand `FP⁰` composition, and
    /// ranges fed to [`Self::observe`] afterwards fork it copy-on-write
    /// when the model is next read — the shared base stays untouched.
    pub fn install_kernel(&mut self, zone: Zone, ty: InstanceType, kernel: Arc<FrozenKernel>) {
        self.models.insert(
            zone,
            ty,
            FailureModel::from_kernel(kernel, FailureModelConfig::default()),
        );
    }

    /// Feed `minutes` of a pool's spot-price history into its failure
    /// model ([`FailureModel::observe`]): the window is cut and folded in
    /// when a strategy next reads the model, so a strategy that never
    /// consults its models never pays for the copy nor the refinement.
    pub fn observe(
        &mut self,
        zone: Zone,
        ty: InstanceType,
        trace: &Arc<PriceTrace>,
        minutes: Range<u64>,
    ) {
        self.models
            .get_or_insert_with(
                zone,
                ty,
                || FailureModel::new(FailureModelConfig::default()),
            )
            .observe(trace, minutes);
    }

    /// Every model of a pool of the first boundary's snapshots follows
    /// its trace from `traces` through the minutes `boundaries` reveal
    /// ([`FailureModel::follow`]); [`Self::show`] moves their cursors.
    pub fn follow<'t>(
        &mut self,
        traces: impl Fn(Zone, InstanceType) -> &'t Arc<PriceTrace>,
        boundaries: &[Boundary],
    ) {
        let revealed = Arc::new(boundaries.iter().map(|b| b.revealed.clone()).collect());
        for s in boundaries.first().map_or(&[][..], |b| &b.snapshots) {
            if let Some(model) = self.models.get_mut(s.zone, s.instance_type) {
                model.follow(traces(s.zone, s.instance_type), &revealed);
            }
        }
    }

    /// Show every model the first `n` followed boundaries' minutes.
    pub fn show(&mut self, n: usize) {
        for model in self.models.values_mut() {
            model.show(n);
        }
    }

    /// The trained model for the `(zone, ty)` pool, if any.
    pub fn model(&self, zone: Zone, ty: InstanceType) -> Option<&FailureModel> {
        self.models.get(zone, ty)
    }

    /// The pools of `snapshots` that have a model, as strategies see them.
    fn states(&self, snapshots: &[MarketSnapshot]) -> Vec<ZoneState<'_>> {
        let model = |s: &MarketSnapshot| self.models.get(s.zone, s.instance_type);
        let mut states = Vec::with_capacity(snapshots.len());
        states.extend(snapshots.iter().filter_map(|s| Some(ZoneState::new(s, model(s)?))));
        states
    }

    /// Make the bidding decision for the next interval (Fig. 2's online
    /// bidding step). Pools without a trained model are skipped.
    pub fn decide(&self, snapshots: &[MarketSnapshot], horizon_minutes: u32) -> BidDecision {
        self.strategy.decide(&self.states(snapshots), &self.spec, horizon_minutes)
    }

    /// The audit view of each bid of `decision`, made on `snapshots` over
    /// `horizon_minutes`, from the models as they stand: the one place a
    /// [`BidView`] is priced, whichever strategy or path made the
    /// decision.
    pub fn views(
        &self,
        snapshots: &[MarketSnapshot],
        decision: &BidDecision,
        horizon_minutes: u32,
    ) -> Vec<BidView> {
        let states = self.states(snapshots);
        (decision.bids.iter())
            .map(|pb| {
                let s = (states.iter())
                    .find(|s| (s.zone, s.instance_type) == (pb.zone, pb.instance_type))
                    .expect("a decision bids only pools it was shown");
                BidView {
                    predicted_fp: (s.model)
                        .estimate_fp(pb.bid, s.spot_price, s.sojourn_age, horizon_minutes),
                    kernel_id: s.model.kernel().fingerprint(),
                }
            })
            .collect()
    }

    /// Record a pass decision as the books take it up
    /// ([`BiddingStrategy::record_decided`]).
    pub fn record_decided(&self, decided: &Decided) {
        self.strategy.record_decided(decided);
    }

    /// Every decision of a schedule in one pass, before any is acted on,
    /// or `None` when the strategy decides in the loop
    /// ([`BiddingStrategy::decide_schedule`]). The pools are those of the
    /// first boundary's snapshots that have a model, which must follow
    /// `boundaries` ([`Self::follow`]); the pass folds copies of the
    /// models, so this framework's own stay as they were for
    /// [`Self::decide`] to read.
    pub fn decide_schedule(&self, boundaries: &[Boundary]) -> Option<Vec<Decided>> {
        let first = boundaries.first().map_or(&[][..], |b| &b.snapshots);
        let pools: Vec<PoolWalk<'_>> = (first.iter().enumerate())
            .filter_map(|(slot, s)| {
                let (zone, instance_type) = (s.zone, s.instance_type);
                self.models.get(zone, instance_type).map(|model| PoolWalk {
                    zone,
                    instance_type,
                    model,
                    slot,
                })
            })
            .collect();
        self.strategy.decide_schedule(&pools, boundaries, &self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::JupiterStrategy;
    use spot_market::{GenParams, TraceGenerator};

    #[test]
    fn end_to_end_on_synthetic_market() {
        // Train on 4 weeks of generated history for 8 zones, then decide.
        let gen = TraceGenerator::with_params(77, GenParams::default());
        let zones: Vec<Zone> = spot_market::topology::experiment_zones()
            .into_iter()
            .take(8)
            .collect();
        let ty = InstanceType::M1Small;
        let horizon = 4 * 7 * 24 * 60;
        let traces: Vec<(Zone, Arc<PriceTrace>)> = zones
            .iter()
            .map(|&z| (z, Arc::new(gen.generate(z, ty, horizon))))
            .collect();

        let mut fw = BiddingFramework::new(ServiceSpec::lock_service(), JupiterStrategy::new());
        for (z, t) in &traces {
            fw.observe(*z, ty, t, 0..t.horizon());
        }

        let snapshots: Vec<MarketSnapshot> = traces
            .iter()
            .map(|(z, t)| MarketSnapshot {
                zone: *z,
                instance_type: ty,
                spot_price: t.price_at(horizon - 1),
                sojourn_age: 3,
            })
            .collect();
        let d = fw.decide(&snapshots, 360);
        assert!(
            d.n() >= 5,
            "synthetic market should be biddable: n={}",
            d.n()
        );
        // Bids never reach the on-demand price.
        for b in &d.bids {
            assert!(b.bid < ty.on_demand_price(b.zone.region));
        }
        // And the upper bound is far below on-demand cost for 5 nodes.
        let od5 = ty.on_demand_price(zones[0].region) * 5;
        assert!(
            d.cost_upper_bound() < od5,
            "{} vs {}",
            d.cost_upper_bound(),
            od5
        );
    }

    #[test]
    fn untrained_zones_are_not_bid() {
        let fw = BiddingFramework::new(ServiceSpec::lock_service(), JupiterStrategy::new());
        let snap = MarketSnapshot {
            zone: spot_market::topology::all_zones()[0],
            instance_type: InstanceType::M1Small,
            spot_price: Price::from_dollars(0.008),
            sojourn_age: 0,
        };
        let d = fw.decide(&[snap], 60);
        assert_eq!(d.n(), 0);
    }

    #[test]
    fn only_a_strategy_that_reads_its_models_folds_them() {
        use crate::{ExtraStrategy, FeedbackStrategy};
        let ty = InstanceType::M1Small;
        let zones: Vec<Zone> = spot_market::topology::experiment_zones()
            .into_iter()
            .take(6)
            .collect();
        let gen = TraceGenerator::new(9);
        let (trained, revealed) = (7 * 24 * 60, 7 * 24 * 60 + 360);
        let traces: Vec<Arc<PriceTrace>> = zones
            .iter()
            .map(|&z| Arc::new(gen.generate(z, ty, revealed)))
            .collect();
        let snapshots: Vec<MarketSnapshot> = zones
            .iter()
            .zip(&traces)
            .map(|(&zone, t)| MarketSnapshot {
                zone,
                instance_type: ty,
                spot_price: t.price_at(revealed - 1),
                sojourn_age: t.sojourn_age_at(revealed - 1) as u32,
            })
            .collect();
        // Ranges still queued per pool after install + observe + decide.
        let unfolded_after_decide = |strategy: Box<dyn BiddingStrategy>| -> Vec<usize> {
            let mut fw = BiddingFramework::new(ServiceSpec::lock_service(), strategy);
            for (&z, t) in zones.iter().zip(&traces) {
                fw.install_kernel(z, ty, Arc::new(FrozenKernel::from_trace(&t.window(0, trained))));
                fw.observe(z, ty, t, trained..revealed);
            }
            let decision = fw.decide(&snapshots, 360);
            assert!(decision.n() > 0, "{} placed no bid", fw.strategy_name());
            zones.iter().map(|&z| fw.model(z, ty).unwrap().unfolded()).collect()
        };
        let model_free: [Box<dyn BiddingStrategy>; 3] = [
            Box::new(ExtraStrategy::new(0, 0.2)),
            Box::new(ExtraStrategy::new(2, 0.2)),
            Box::new(FeedbackStrategy::new()),
        ];
        for strategy in model_free {
            assert_eq!(unfolded_after_decide(strategy), vec![1; zones.len()]);
        }
        assert_eq!(
            unfolded_after_decide(Box::new(JupiterStrategy::new())),
            vec![0; zones.len()]
        );
    }

    #[test]
    fn incremental_observation_trains() {
        let gen = TraceGenerator::new(5);
        let zone = spot_market::topology::all_zones()[0];
        let ty = InstanceType::M1Small;
        let trace = Arc::new(gen.generate(zone, ty, 7 * 24 * 60));
        let mut fw = BiddingFramework::new(ServiceSpec::lock_service(), JupiterStrategy::new());
        assert!(fw.model(zone, ty).is_none());
        fw.observe(zone, ty, &trace, 0..5_000);
        fw.observe(zone, ty, &trace, 5_000..10_000);
        let m = fw.model(zone, ty).unwrap();
        assert!(m.is_trained());
        assert!(m.kernel().total_transitions() > 0);
    }
}
