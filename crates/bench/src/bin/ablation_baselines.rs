//! Ablation: the SVM against logistic-regression and k-NN baselines on the
//! identical sensitive-node features and labels.
//!
//! ```sh
//! cargo run --release -p ssresf-bench --bin ablation_baselines
//! ```

use ssresf::{label_cells, LabelRule, Ssresf};
use ssresf_bench::{analysis_config, soc};
use ssresf_mlcore::{
    baseline::{KnnClassifier, LogisticParams, LogisticRegression},
    BinaryMetrics, Dataset, KFold, StandardScaler, SvmModel, SvmParams,
};

/// Trains on the first index set and predicts labels for the second.
type Predictor = dyn Fn(&Dataset, &[usize], &[usize]) -> Vec<i8>;

fn main() {
    let (built, flat) = soc(0);
    let config = analysis_config(&built, flat.cells().len());
    let analysis = Ssresf::new(config)
        .analyze(&flat)
        .expect("analysis succeeds");

    // Rebuild the labeled dataset the pipeline trained on.
    let sampled = analysis.sample.all_cells();
    let rows: Vec<Vec<f64>> = sampled
        .iter()
        .map(|&cell| analysis.features_of(cell).values.clone())
        .collect();
    let labels = label_cells(
        &sampled,
        &analysis.campaign,
        &analysis.clustering,
        &analysis.ser,
        LabelRule::Blended,
    )
    .into_iter()
    .map(|(_, sensitive)| if sensitive { 1i8 } else { -1 })
    .collect();
    let scaler = StandardScaler::fit(&rows).expect("fit succeeds");
    let data = Dataset::new(scaler.transform(&rows), labels).expect("valid dataset");
    let folds = KFold::new(5, 0).expect("k >= 2");

    println!("Ablation: classifier family on the PULP SoC_1 sensitive-node task\n");
    println!(
        "{:<22} {:>9} {:>8} {:>8} {:>8}",
        "classifier", "accuracy", "TPR", "TNR", "F1"
    );

    // (classifier, F1) of every printed row, for the footer.
    let mut f1_rows: Vec<(String, f64)> = Vec::new();
    let mut evaluate = |name: &str, predict: &Predictor| {
        let mut truth = Vec::new();
        let mut predicted = Vec::new();
        for (train_idx, test_idx) in folds.split(&data).expect("split succeeds") {
            let train = data.subset(&train_idx);
            if !train.has_both_classes() {
                continue;
            }
            let preds = predict(&data, &train_idx, &test_idx);
            for (&i, p) in test_idx.iter().zip(preds) {
                truth.push(data.labels()[i]);
                predicted.push(p);
            }
        }
        let m = BinaryMetrics::from_predictions(&truth, &predicted);
        println!(
            "{:<22} {:>8.2}% {:>7.2}% {:>7.2}% {:>8.2}",
            name,
            m.accuracy() * 100.0,
            m.tpr() * 100.0,
            m.tnr() * 100.0,
            m.f1()
        );
        f1_rows.push((name.to_owned(), m.f1()));
    };

    evaluate("svm (rbf, weighted)", &|data, train_idx, test_idx| {
        let train = data.subset(train_idx);
        let pos = train.positives().max(1) as f64;
        let neg = (train.len() - train.positives()).max(1) as f64;
        let model = SvmModel::train(
            &train,
            &SvmParams {
                positive_weight: (neg / pos).clamp(1.0 / 16.0, 16.0),
                ..SvmParams::default()
            },
        )
        .expect("training succeeds");
        test_idx
            .iter()
            .map(|&i| model.predict(data.row(i)))
            .collect()
    });

    evaluate("logistic regression", &|data, train_idx, test_idx| {
        let train = data.subset(train_idx);
        let model =
            LogisticRegression::train(&train, &LogisticParams::default()).expect("training");
        test_idx
            .iter()
            .map(|&i| model.predict(data.row(i)))
            .collect()
    });

    for k in [1usize, 5] {
        evaluate(
            &format!("knn (k={k})"),
            &move |data, train_idx, test_idx| {
                let train = data.subset(train_idx);
                let model = KnnClassifier::fit(&train, k).expect("fit succeeds");
                test_idx
                    .iter()
                    .map(|&i| model.predict(data.row(i)))
                    .collect()
            },
        );
    }
    // The first row wins a tie.
    let (best, best_f1) = f1_rows.iter().fold(
        &f1_rows[0],
        |best, row| if row.1 > best.1 { row } else { best },
    );
    println!("\n(Best F1 in this run: {best}, {best_f1:.2}.)");
}
