//! Per-user behavioral profiles.
//!
//! The benchmark dataset models each synthetic user as a stable set of web
//! habits: a small repertoire of favorite website categories, applications
//! and media types (the paper measures ≈18/105 categories, ≈17/257
//! subtypes, ≈19/464 application types per user over six months), a
//! characteristic HTTP action / scheme / reputation mix, a diurnal activity
//! rhythm, and a personal request rate.
//!
//! Repertoire items carry *unlock times*: a user starts with most of their
//! eventual repertoire and discovers the remainder gradually over the first
//! weeks. This reproduces the paper's novelty-ratio decay (Figs. 1–2):
//! high novelty after one week of observation, dropping towards ~5 % as
//! the observation epoch grows.

use crate::dist;
use proxylog::{
    AppTypeId, CategoryId, HttpAction, Reputation, SiteId, SubtypeId, Taxonomy, Timestamp,
    UriScheme, UserId,
};
use rand::seq::SliceRandom;
use rand::Rng;

/// How much traffic a user generates; the dataset mixes light users (some
/// of which fall below the paper's 1,500-transaction filter), regular
/// users, and a few heavy hitters (the paper's top user logs 4.7 M
/// transactions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityClass {
    /// Rarely active; may not survive the minimum-transaction filter.
    Light,
    /// Typical office worker.
    Regular,
    /// Automation-like heavy traffic.
    Heavy,
}

impl ActivityClass {
    fn visits_per_hour<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        match self {
            // Log-normal rates; medians ≈ 1.6, 12, 120 visits/hour.
            ActivityClass::Light => dist::log_normal(rng, 0.5, 0.5),
            ActivityClass::Regular => dist::log_normal(rng, 2.5, 0.6),
            ActivityClass::Heavy => dist::log_normal(rng, 4.8, 0.4),
        }
    }

    fn sessions_per_day<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        match self {
            ActivityClass::Light => 0.2 + rng.gen::<f64>() * 0.6,
            ActivityClass::Regular => 1.5 + rng.gen::<f64>() * 2.0,
            ActivityClass::Heavy => 3.0 + rng.gen::<f64>() * 3.0,
        }
    }
}

/// A weighted repertoire whose items become available over time.
#[derive(Debug, Clone)]
pub struct Repertoire<T> {
    items: Vec<RepertoireItem<T>>,
}

#[derive(Debug, Clone)]
struct RepertoireItem<T> {
    value: T,
    weight: f64,
    unlock: Timestamp,
}

impl<T: Copy> Repertoire<T> {
    /// Builds a repertoire from distinct values with Zipf-decaying weights.
    /// The first `initial_fraction` of items unlock at `start`; the rest
    /// unlock at exponentially distributed offsets with mean
    /// `mean_unlock_weeks`.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        values: Vec<T>,
        start: Timestamp,
        initial_fraction: f64,
        mean_unlock_weeks: f64,
        zipf_exponent: f64,
    ) -> Self {
        let n = values.len();
        let weights = dist::zipf_weights(n, zipf_exponent);
        let initially_unlocked = ((n as f64 * initial_fraction).round() as usize).clamp(1, n);
        let items = values
            .into_iter()
            .zip(weights)
            .enumerate()
            .map(|(rank, (value, weight))| {
                let unlock = if rank < initially_unlocked {
                    start
                } else {
                    let weeks = dist::exponential(rng, 1.0 / mean_unlock_weeks.max(1e-6));
                    start + (weeks * 7.0 * 86_400.0) as i64
                };
                RepertoireItem { value, weight, unlock }
            })
            .collect();
        Self { items }
    }

    /// Total repertoire size (including not-yet-unlocked items).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the repertoire has no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// How many items are unlocked at `now`.
    pub fn unlocked_count(&self, now: Timestamp) -> usize {
        self.items.iter().filter(|item| item.unlock <= now).count()
    }

    /// Samples an unlocked item by weight; falls back to the first item if
    /// nothing is unlocked yet (cannot happen for repertoires built by
    /// [`Repertoire::generate`], which always unlocks at least one item at
    /// the start).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, now: Timestamp) -> T {
        let total: f64 = self.items.iter().filter(|i| i.unlock <= now).map(|i| i.weight).sum();
        if total <= 0.0 {
            return self.items[0].value;
        }
        let mut target = rng.gen::<f64>() * total;
        for item in &self.items {
            if item.unlock <= now {
                target -= item.weight;
                if target <= 0.0 {
                    return item.value;
                }
            }
        }
        self.items[0].value
    }

    /// Iterates over all values (ignoring unlock times).
    pub fn values(&self) -> impl Iterator<Item = T> + '_ {
        self.items.iter().map(|i| i.value)
    }
}

impl<T: Copy> Repertoire<T> {
    /// The value at a rank, or `None` when out of range.
    pub fn value_at(&self, rank: usize) -> Option<T> {
        self.items.get(rank).map(|item| item.value)
    }

    /// The unlock time at a rank, or `None` when out of range.
    pub fn unlock_at(&self, rank: usize) -> Option<Timestamp> {
        self.items.get(rank).map(|item| item.unlock)
    }
}

impl<T: Copy + PartialEq> Repertoire<T> {
    /// The unlock time of a value, or `None` if it is not in the
    /// repertoire.
    pub fn unlock_of(&self, value: T) -> Option<Timestamp> {
        self.items.iter().find(|item| item.value == value).map(|item| item.unlock)
    }
}

/// Pools of category/app/subtype ids shared by users with the same
/// organizational role; role-mates partially overlap in behavior, which is
/// what produces the off-diagonal confusions of the paper's Tab. V.
#[derive(Debug, Clone)]
pub struct RoleTemplate {
    /// Role index.
    pub index: usize,
    /// Candidate categories for users of this role.
    pub categories: Vec<CategoryId>,
    /// Candidate application types.
    pub apps: Vec<AppTypeId>,
    /// Candidate media subtypes.
    pub subtypes: Vec<SubtypeId>,
}

/// Categories every office user touches (search, news, webmail, CDN, ads).
fn common_categories(taxonomy: &Taxonomy) -> Vec<CategoryId> {
    ["Search Engines", "News", "Webmail", "Content Delivery", "Advertising"]
        .iter()
        .filter_map(|name| taxonomy.category_by_name(name))
        .collect()
}

fn common_apps(taxonomy: &Taxonomy) -> Vec<AppTypeId> {
    ["Google Analytics", "DoubleClick", "Akamai", "CloudFlare", "AdSense"]
        .iter()
        .filter_map(|name| taxonomy.app_type_by_name(name))
        .collect()
}

fn common_subtypes(taxonomy: &Taxonomy) -> Vec<SubtypeId> {
    ["text/html", "application/javascript", "image/png"]
        .iter()
        .filter_map(|name| taxonomy.subtype_by_media_string(name))
        .collect()
}

impl RoleTemplate {
    /// Builds a role's candidate pools. Most of each pool (85 %, fewer when
    /// the role's slice is narrower) is drawn from a taxonomy region
    /// *exclusive* to this role, the rest from the whole taxonomy — so users of different roles overlap only lightly
    /// (the near-zero off-diagonal background of Tab. V) while role-mates
    /// share most of their candidate behavior (its confusion clusters).
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        index: usize,
        n_roles: usize,
        taxonomy: &Taxonomy,
    ) -> Self {
        let n_roles = n_roles.max(1);
        let categories = sample_role_ids(rng, taxonomy.category_count(), 22, index, n_roles)
            .map(CategoryId)
            .collect();
        let apps = sample_role_ids(rng, taxonomy.app_type_count(), 28, index, n_roles)
            .map(AppTypeId)
            .collect();
        let subtypes = sample_role_ids(rng, taxonomy.subtype_count(), 18, index, n_roles)
            .map(SubtypeId)
            .collect();
        Self { index, categories, apps, subtypes }
    }
}

/// Samples `count` distinct ids: `count * 17 / 20` (85 %, rounded down)
/// from the role's exclusive slice of the id space, or the whole slice when
/// it is narrower, and the rest from the ids not yet picked anywhere in
/// the space.
fn sample_role_ids<R: Rng + ?Sized>(
    rng: &mut R,
    universe: usize,
    count: usize,
    role: usize,
    n_roles: usize,
) -> impl Iterator<Item = u16> {
    // 80 % of the universe is split into per-role exclusive slices.
    let slice_width = (universe * 4 / 5) / n_roles;
    let slice_start = (role % n_roles) * slice_width;
    let mut exclusive: Vec<u16> = (slice_start
        ..slice_start + slice_width.max(1).min(universe - slice_start))
        .map(|i| i as u16)
        .collect();
    exclusive.shuffle(rng);
    let from_slice = (count * 17 / 20).min(exclusive.len());
    let mut picked: Vec<u16> = exclusive.into_iter().take(from_slice).collect();
    let mut everywhere: Vec<u16> = (0..universe as u16).filter(|id| !picked.contains(id)).collect();
    everywhere.shuffle(rng);
    picked.extend(everywhere.into_iter().take(count.saturating_sub(from_slice)));
    picked.into_iter()
}

/// A favorite destination with its fixed characteristics.
///
/// Real web sites have a stable identity: one category, one serving
/// application, one scheme, and — crucially — a *fixed resource
/// signature*: loading the page fetches the same scripts, styles and
/// images every time. This is what makes transaction windows repeat
/// bit-exactly over months (the paper's Fig. 2 measures only ~25 % novel
/// window vectors after a single week of observation).
#[derive(Debug, Clone)]
pub struct SiteProfile {
    /// Destination site.
    pub site: SiteId,
    /// Website category of the site.
    pub category: CategoryId,
    /// Application serving the site.
    pub app_type: AppTypeId,
    /// Scheme used for every visit.
    pub scheme: UriScheme,
    /// Whether the destination is on the internal network.
    pub private_destination: bool,
    /// The fixed resource signature of a full page load, page first.
    pub resources: Vec<SiteResource>,
}

/// One fixed resource of a site's page-load signature.
///
/// Reputation is per *resource*, not per site: pages embed third-party
/// content whose reputation differs from the page's own (ads, CDNs,
/// trackers). The mix is fixed per site, so the averaged reputation
/// features of a window are stable yet user-characteristic fractions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteResource {
    /// Media subtype of the resource.
    pub subtype: SubtypeId,
    /// HTTP action fetching it.
    pub action: HttpAction,
    /// URL reputation of the resource.
    pub reputation: Reputation,
}

/// A user's complete behavioral profile; consumed by the generator to
/// produce that user's transactions.
#[derive(Debug, Clone)]
pub struct UserBehaviorProfile {
    /// The profiled user.
    pub user: UserId,
    /// Role this user was derived from.
    pub role: usize,
    /// Activity class.
    pub class: ActivityClass,
    categories: Repertoire<CategoryId>,
    apps: Repertoire<AppTypeId>,
    subtypes: Repertoire<SubtypeId>,
    /// Favorite sites with fixed signatures; the index repertoire carries
    /// the Zipf weights and unlock times.
    site_profiles: Vec<SiteProfile>,
    site_choice: Repertoire<u16>,
    exploration_probability: f64,
    taxonomy_sizes: (usize, usize, usize),
    /// Mean page visits per active hour.
    pub visits_per_hour: f64,
    /// Mean resources per page visit (burst size − 1).
    pub burst_mean: f64,
    /// Mean work sessions per day.
    pub sessions_per_day: f64,
    /// Mean session duration in seconds.
    pub session_duration_secs: f64,
    /// Start of the user's working window, seconds after midnight.
    pub work_start: u32,
    /// End of the user's working window, seconds after midnight.
    pub work_end: u32,
    /// Relative weekend activity (0 = none, 1 = same as weekdays).
    pub weekend_activity: f64,
}

impl UserBehaviorProfile {
    /// Draws a user profile from a role template.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        user: UserId,
        role: &RoleTemplate,
        class: ActivityClass,
        taxonomy: &Taxonomy,
        start: Timestamp,
    ) -> Self {
        // Personal repertoires: shared "everyone" items + a sample of the
        // role pool + a couple of personal picks from the whole taxonomy.
        let categories = build_personal_set(
            rng,
            common_categories(taxonomy),
            &role.categories,
            10,
            3,
            taxonomy.category_count(),
            CategoryId,
            |c| c.0,
            CommonPlacement::Tail,
        );
        let apps = build_personal_set(
            rng,
            common_apps(taxonomy),
            &role.apps,
            11,
            3,
            taxonomy.app_type_count(),
            AppTypeId,
            |a| a.0,
            CommonPlacement::Tail,
        );
        let subtypes = build_personal_set(
            rng,
            common_subtypes(taxonomy),
            &role.subtypes,
            12,
            3,
            taxonomy.subtype_count(),
            SubtypeId,
            |s| s.0,
            CommonPlacement::Mixed,
        );

        // Calibrated against Fig. 1: categories and application types show
        // <10 % novelty after one week of observation, media types ~25 %,
        // all decaying to ~5 % — so most of the repertoire is active from
        // the start and the tail unlocks over the first weeks.
        let categories = Repertoire::generate(rng, categories, start, 0.95, 4.0, 0.9);
        let apps = Repertoire::generate(rng, apps, start, 0.95, 4.0, 0.9);
        let subtypes = Repertoire::generate(rng, subtypes, start, 0.8, 5.0, 0.7);

        let visits_per_hour = class.visits_per_hour(rng);
        let sessions_per_day = class.sessions_per_day(rng);
        let work_start = (6 * 3600 + rng.gen_range(0..5 * 3600)) as u32;
        let work_len = rng.gen_range(5 * 3600..10 * 3600) as u32;

        // Per-user style knobs realized through the site profiles.
        let https_probability = 0.3 + rng.gen::<f64>() * 0.5;
        let private_probability = 0.01 + rng.gen::<f64>() * 0.15;
        let unverified_probability = 0.05 + rng.gen::<f64>() * 0.15;
        let medium_risk_probability = 0.01 + rng.gen::<f64>() * 0.06;
        let high_risk_probability = rng.gen::<f64>() * 0.02;

        // Favorite sites: each gets an unlock time (novelty decay of
        // Figs. 1–2 is carried by late-unlocking sites), then fixed
        // characteristics drawn from the repertoires *unlocked at that
        // time*, so a late site may introduce late repertoire items.
        let n_sites = 30 + rng.gen_range(0..14usize);
        let site_choice =
            Repertoire::generate(rng, (0..n_sites as u16).collect(), start, 0.85, 4.0, 0.9);
        let html = taxonomy.subtype_by_media_string("text/html");
        let site_profiles: Vec<SiteProfile> = (0..n_sites)
            .map(|rank| {
                // Unlock time of this site (same index space as the choice
                // repertoire built above).
                let unlock = site_choice.unlock_of(rank as u16).unwrap_or(start);
                let scheme = if rng.gen::<f64>() < https_probability {
                    UriScheme::Https
                } else {
                    UriScheme::Http
                };
                // Each resource carries its own fixed reputation drawn
                // from the user's risk appetite; the per-window averages
                // become stable, user-characteristic fractions.
                let sample_reputation = |rng: &mut R| {
                    let roll: f64 = rng.gen();
                    if roll < high_risk_probability {
                        Reputation::High
                    } else if roll < high_risk_probability + medium_risk_probability {
                        Reputation::Medium
                    } else if roll
                        < high_risk_probability + medium_risk_probability + unverified_probability
                    {
                        Reputation::Unverified
                    } else {
                        Reputation::Minimal
                    }
                };
                let mut resources: Vec<SiteResource> = Vec::new();
                let push = |rng: &mut R,
                            resources: &mut Vec<SiteResource>,
                            subtype: SubtypeId,
                            action: HttpAction| {
                    let reputation = sample_reputation(rng);
                    resources.push(SiteResource { subtype, action, reputation });
                };
                // Page first; HTTPS sites open with a CONNECT tunnel.
                if scheme == UriScheme::Https {
                    if let Some(html) = html {
                        push(rng, &mut resources, html, HttpAction::Connect);
                    }
                }
                if let Some(html) = html {
                    push(rng, &mut resources, html, HttpAction::Get);
                }
                let assets = 2 + rng.gen_range(0..6usize);
                if let Some(subtype) = forced_item(rank, unlock, &subtypes) {
                    push(rng, &mut resources, subtype, HttpAction::Get);
                }
                for _ in 0..assets {
                    let subtype = subtypes.sample(rng, unlock);
                    push(rng, &mut resources, subtype, HttpAction::Get);
                }
                // Some sites are interactive (a POST API call per load) or
                // probe caches with HEAD.
                if rng.gen::<f64>() < 0.15 {
                    let subtype = subtypes.sample(rng, unlock);
                    push(rng, &mut resources, subtype, HttpAction::Post);
                }
                if rng.gen::<f64>() < 0.08 {
                    let subtype = subtypes.sample(rng, unlock);
                    push(rng, &mut resources, subtype, HttpAction::Head);
                }
                SiteProfile {
                    site: SiteId(rng.gen_range(0..100_000)),
                    category: forced_item(rank, unlock, &categories)
                        .unwrap_or_else(|| categories.sample(rng, unlock)),
                    app_type: forced_item(rank, unlock, &apps)
                        .unwrap_or_else(|| apps.sample(rng, unlock)),
                    scheme,
                    private_destination: rng.gen::<f64>() < private_probability,
                    resources,
                }
            })
            .collect();

        Self {
            user,
            role: role.index,
            class,
            categories,
            apps,
            subtypes,
            site_profiles,
            site_choice,
            // Exploration must stay negligible: every uniform draw adds a
            // distinct "novel" value to the user's feature set, and the
            // novelty ratios of Fig. 1 count distinct values. A couple of
            // stray visits per hundred thousand transactions matches the
            // low residual novelty the paper reports at week 21.
            exploration_probability: 0.00002,
            taxonomy_sizes: (
                taxonomy.category_count(),
                taxonomy.subtype_count(),
                taxonomy.app_type_count(),
            ),
            visits_per_hour,
            burst_mean: 4.0 + rng.gen::<f64>() * 8.0,
            sessions_per_day,
            session_duration_secs: 1800.0 + rng.gen::<f64>() * 7200.0,
            work_start,
            work_end: (work_start + work_len).min(24 * 3600 - 1),
            weekend_activity: rng.gen::<f64>() * 0.4,
        }
    }

    /// Samples the site of a page visit at `now`: usually one of the
    /// user's unlocked favorite sites, very rarely a one-off exploration
    /// site with random characteristics.
    pub fn sample_site<R: Rng + ?Sized>(&self, rng: &mut R, now: Timestamp) -> SiteProfile {
        if rng.gen::<f64>() < self.exploration_probability {
            return self.exploration_site(rng);
        }
        let index = self.site_choice.sample(rng, now);
        self.site_profiles[index as usize].clone()
    }

    /// All favorite sites (ignoring unlock times), for inspection.
    pub fn site_profiles(&self) -> &[SiteProfile] {
        &self.site_profiles
    }

    /// Samples a *dynamic* resource subtype at `now` (sites occasionally
    /// serve content outside their fixed signature — a new download, an
    /// updated widget). Drawn from the unlock-gated subtype repertoire, so
    /// late-unlocking media types keep appearing over the weeks: this is
    /// what keeps media-type novelty above category/application novelty in
    /// Fig. 1, as the paper observes.
    pub fn sample_dynamic_subtype<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        now: Timestamp,
    ) -> SubtypeId {
        self.subtypes.sample(rng, now)
    }

    /// A one-off site with uniformly random identity (exploration).
    fn exploration_site<R: Rng + ?Sized>(&self, rng: &mut R) -> SiteProfile {
        let (n_categories, n_subtypes, n_apps) = self.taxonomy_sizes;
        let resources = (0..2)
            .map(|_| SiteResource {
                subtype: SubtypeId(rng.gen_range(0..n_subtypes as u16)),
                action: HttpAction::Get,
                reputation: Reputation::Unverified,
            })
            .collect();
        SiteProfile {
            site: SiteId(rng.gen_range(0..1_000_000)),
            category: CategoryId(rng.gen_range(0..n_categories as u16)),
            app_type: AppTypeId(rng.gen_range(0..n_apps as u16)),
            scheme: UriScheme::Http,
            private_destination: false,
            resources,
        }
    }

    /// The category repertoire (for inspection and tests).
    pub fn category_repertoire(&self) -> &Repertoire<CategoryId> {
        &self.categories
    }

    /// The application repertoire.
    pub fn app_repertoire(&self) -> &Repertoire<AppTypeId> {
        &self.apps
    }

    /// The subtype repertoire.
    pub fn subtype_repertoire(&self) -> &Repertoire<SubtypeId> {
        &self.subtypes
    }
}

/// Round-robin coverage helper for site generation: item `rank % len` of
/// the repertoire, provided it is unlocked by `unlock`. Guarantees every
/// repertoire item is carried by some site (pure weighted sampling leaves
/// tail items orphaned and the per-user feature coverage falls below the
/// paper's ≈18-value statistics).
fn forced_item<T: Copy>(rank: usize, unlock: Timestamp, repertoire: &Repertoire<T>) -> Option<T> {
    let idx = rank % repertoire.len();
    match repertoire.unlock_at(idx) {
        Some(item_unlock) if item_unlock <= unlock => repertoire.value_at(idx),
        _ => None,
    }
}

/// How the shared "everyone" items are weighted within a repertoire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommonPlacement {
    /// Common items go to the tail of the Zipf ranking: present for every
    /// user but never dominant. Used for categories and applications so
    /// that the *dominant* behavior stays user-specific (otherwise every
    /// user's windows are mostly search/news/CDN and models cannot
    /// separate them).
    Tail,
    /// Common items are shuffled in with the rest (content media types
    /// like `text/html` genuinely dominate everyone's traffic).
    Mixed,
}

/// `sample(role_pool, role_count) ∪ random personal picks ∪ common`,
/// deduplicated; ordering (and therefore Zipf weight) per
/// [`CommonPlacement`].
#[allow(clippy::too_many_arguments)]
fn build_personal_set<R, T, F, G>(
    rng: &mut R,
    common: Vec<T>,
    role_pool: &[T],
    role_count: usize,
    personal_count: usize,
    universe: usize,
    make: F,
    raw: G,
    placement: CommonPlacement,
) -> Vec<T>
where
    R: Rng + ?Sized,
    T: Copy,
    F: Fn(u16) -> T,
    G: Fn(T) -> u16,
{
    let mut seen: Vec<u16> = Vec::new();
    let mut out: Vec<T> = Vec::new();
    let push = |item: T, seen: &mut Vec<u16>, out: &mut Vec<T>| {
        let key = raw(item);
        if !seen.contains(&key) {
            seen.push(key);
            out.push(item);
        }
    };
    let mut pool: Vec<T> = role_pool.to_vec();
    pool.shuffle(rng);
    for item in pool.into_iter().take(role_count) {
        push(item, &mut seen, &mut out);
    }
    for _ in 0..personal_count {
        push(make(rng.gen_range(0..universe as u16)), &mut seen, &mut out);
    }
    match placement {
        CommonPlacement::Tail => {
            // Distinctive items get the dominant (head) weights; common
            // items trail.
            out.shuffle(rng);
            for item in common {
                push(item, &mut seen, &mut out);
            }
        }
        CommonPlacement::Mixed => {
            for item in common {
                push(item, &mut seen, &mut out);
            }
            out.shuffle(rng);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn taxonomy() -> Arc<Taxonomy> {
        Taxonomy::paper_scale()
    }

    fn profile(seed: u64) -> UserBehaviorProfile {
        let taxonomy = taxonomy();
        let mut rng = StdRng::seed_from_u64(seed);
        let role = RoleTemplate::generate(&mut rng, 0, 9, &taxonomy);
        UserBehaviorProfile::generate(
            &mut rng,
            UserId(1),
            &role,
            ActivityClass::Regular,
            &taxonomy,
            Timestamp(0),
        )
    }

    #[test]
    fn repertoire_sizes_match_paper_statistics() {
        // Paper: ≈17.8 categories, ≈17.1 subtypes, ≈19.1 app types per user.
        let mut category_total = 0usize;
        let mut subtype_total = 0usize;
        let mut app_total = 0usize;
        let n = 30;
        for seed in 0..n {
            let p = profile(seed);
            category_total += p.category_repertoire().len();
            subtype_total += p.subtype_repertoire().len();
            app_total += p.app_repertoire().len();
        }
        let (c, s, a) = (
            category_total as f64 / n as f64,
            subtype_total as f64 / n as f64,
            app_total as f64 / n as f64,
        );
        assert!((12.0..=22.0).contains(&c), "categories/user = {c}");
        assert!((12.0..=22.0).contains(&s), "subtypes/user = {s}");
        assert!((14.0..=24.0).contains(&a), "app types/user = {a}");
    }

    #[test]
    fn repertoire_unlocks_grow_over_time() {
        let p = profile(3);
        let start = Timestamp(0);
        let later = start + 20 * 7 * 86_400;
        // Unlock offsets are exponential (mean a few weeks, unbounded tail),
        // so compare against a far-future horizon for completeness.
        let eventually = start + 100 * 52 * 7 * 86_400;
        assert!(p.category_repertoire().unlocked_count(start) >= 1);
        assert!(
            p.category_repertoire().unlocked_count(later)
                >= p.category_repertoire().unlocked_count(start)
        );
        assert_eq!(
            p.category_repertoire().unlocked_count(eventually),
            p.category_repertoire().len()
        );
    }

    #[test]
    fn sampled_sites_stay_in_repertoire_mostly() {
        let p = profile(5);
        let mut rng = StdRng::seed_from_u64(9);
        let now = Timestamp(30 * 86_400);
        let allowed: Vec<CategoryId> = p.category_repertoire().values().collect();
        let mut inside = 0;
        let n = 2000;
        for _ in 0..n {
            let site = p.sample_site(&mut rng, now);
            if allowed.contains(&site.category) {
                inside += 1;
            }
        }
        assert!(inside as f64 / n as f64 > 0.98, "inside = {inside}/{n}");
    }

    #[test]
    fn site_signatures_are_fixed() {
        // Sampling the same site twice yields the identical resource
        // signature — the property that makes window vectors repeat.
        let p = profile(6);
        let mut rng = StdRng::seed_from_u64(4);
        let now = Timestamp(10 * 86_400);
        let mut seen: std::collections::BTreeMap<u32, Vec<(u16, &'static str)>> =
            std::collections::BTreeMap::new();
        for _ in 0..500 {
            let site = p.sample_site(&mut rng, now);
            let signature: Vec<(u16, &'static str)> =
                site.resources.iter().map(|r| (r.subtype.0, r.action.as_str())).collect();
            if let Some(previous) = seen.get(&site.site.0) {
                assert_eq!(previous, &signature, "site {} changed signature", site.site);
            } else {
                seen.insert(site.site.0, signature);
            }
        }
        assert!(seen.len() > 3, "expected several distinct sites");
    }

    #[test]
    fn site_resources_start_with_a_page() {
        let p = profile(8);
        let taxonomy = taxonomy();
        let html = taxonomy.subtype_by_media_string("text/html").unwrap();
        for site in p.site_profiles() {
            let first = site.resources.first().expect("non-empty");
            assert_eq!(first.subtype, html);
            match site.scheme {
                proxylog::UriScheme::Https => assert_eq!(first.action, HttpAction::Connect),
                proxylog::UriScheme::Http => assert_eq!(first.action, HttpAction::Get),
            }
        }
    }

    #[test]
    fn visits_only_sample_unlocked_items() {
        let p = profile(7);
        let start = Timestamp(0);
        let unlocked: Vec<CategoryId> = p
            .category_repertoire()
            .values()
            .enumerate()
            .filter(|&(i, _)| {
                // reconstruct: only items unlocked at start
                p.category_repertoire().unlocked_count(start) > i
            })
            .map(|(_, v)| v)
            .collect();
        // The repertoire is ordered, and generate() unlocks a prefix at t₀.
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let c = p.category_repertoire().sample(&mut rng, start);
            assert!(unlocked.contains(&c), "sampled locked category {c:?}");
        }
    }

    #[test]
    fn profiles_differ_across_users() {
        let a = profile(10);
        let b = profile(11);
        let set_a: Vec<u16> = a.category_repertoire().values().map(|c| c.0).collect();
        let set_b: Vec<u16> = b.category_repertoire().values().map(|c| c.0).collect();
        assert_ne!(set_a, set_b, "distinct users must have distinct repertoires");
    }

    #[test]
    fn role_mates_share_more_than_strangers() {
        let taxonomy = taxonomy();
        let mut rng = StdRng::seed_from_u64(77);
        let role_a = RoleTemplate::generate(&mut rng, 0, 9, &taxonomy);
        let role_b = RoleTemplate::generate(&mut rng, 1, 9, &taxonomy);
        let overlap =
            |xs: &[CategoryId], ys: &[CategoryId]| xs.iter().filter(|x| ys.contains(x)).count();
        let mut mates = 0usize;
        let mut strangers = 0usize;
        for seed in 0..10u64 {
            let mut rng_1 = StdRng::seed_from_u64(1000 + seed);
            let mut rng_2 = StdRng::seed_from_u64(2000 + seed);
            let mut rng_3 = StdRng::seed_from_u64(3000 + seed);
            let u1 = UserBehaviorProfile::generate(
                &mut rng_1,
                UserId(1),
                &role_a,
                ActivityClass::Regular,
                &taxonomy,
                Timestamp(0),
            );
            let u2 = UserBehaviorProfile::generate(
                &mut rng_2,
                UserId(2),
                &role_a,
                ActivityClass::Regular,
                &taxonomy,
                Timestamp(0),
            );
            let u3 = UserBehaviorProfile::generate(
                &mut rng_3,
                UserId(3),
                &role_b,
                ActivityClass::Regular,
                &taxonomy,
                Timestamp(0),
            );
            let c1: Vec<CategoryId> = u1.category_repertoire().values().collect();
            let c2: Vec<CategoryId> = u2.category_repertoire().values().collect();
            let c3: Vec<CategoryId> = u3.category_repertoire().values().collect();
            mates += overlap(&c1, &c2);
            strangers += overlap(&c1, &c3);
        }
        assert!(mates > strangers, "role-mates {mates} <= strangers {strangers}");
    }

    #[test]
    fn activity_classes_order_rates() {
        let taxonomy = taxonomy();
        let mean_rate = |class: ActivityClass| {
            let mut total = 0.0;
            for seed in 0..20u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let role = RoleTemplate::generate(&mut rng, 0, 9, &taxonomy);
                let p = UserBehaviorProfile::generate(
                    &mut rng,
                    UserId(0),
                    &role,
                    class,
                    &taxonomy,
                    Timestamp(0),
                );
                total += p.visits_per_hour;
            }
            total / 20.0
        };
        let light = mean_rate(ActivityClass::Light);
        let regular = mean_rate(ActivityClass::Regular);
        let heavy = mean_rate(ActivityClass::Heavy);
        assert!(light < regular && regular < heavy, "{light} {regular} {heavy}");
    }

    #[test]
    fn working_window_is_sane() {
        for seed in 0..20 {
            let p = profile(seed);
            assert!(p.work_start < p.work_end);
            assert!(p.work_end < 24 * 3600);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = profile(42);
        let b = profile(42);
        let ca: Vec<u16> = a.category_repertoire().values().map(|c| c.0).collect();
        let cb: Vec<u16> = b.category_repertoire().values().map(|c| c.0).collect();
        assert_eq!(ca, cb);
        assert_eq!(a.visits_per_hour, b.visits_per_hour);
    }
}
