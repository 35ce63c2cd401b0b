type 'a outcome =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

let recommended_jobs () =
  let base =
    match Sys.getenv_opt "FBA_JOBS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | Some _ | None -> Domain.recommended_domain_count ())
    | None -> Domain.recommended_domain_count ()
  in
  max 1 base

let unwrap results =
  (* Lowest-index failure wins, whatever order the workers hit them. *)
  Array.iter
    (function Failed (e, bt) -> Printexc.raise_with_backtrace e bt | _ -> ())
    results;
  Array.map
    (function Done v -> v | Pending | Failed _ -> assert false)
    results

let run_seq f len =
  let results = Array.make len Pending in
  for i = 0 to len - 1 do
    results.(i) <- Done (f i)
  done;
  unwrap results

let run ~jobs f len =
  if len = 0 then [||]
  else if jobs <= 1 || len = 1 then run_seq f len
  else begin
    let jobs = min jobs len in
    let results = Array.make len Pending in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    (* Each slot is written by exactly one domain and read only after
       the joins below, which order those writes before the reads. *)
    let rec worker () =
      if not (Atomic.get failed) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < len then begin
          (match f i with
          | v -> results.(i) <- Done v
          | exception e ->
            let bt = Printexc.get_raw_backtrace () in
            results.(i) <- Failed (e, bt);
            Atomic.set failed true);
          worker ()
        end
      end
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is the pool's last worker. *)
    (try worker ()
     with e ->
       (* A crash here (stack overflow, out of memory) must not leak
          the spawned domains. *)
       Atomic.set failed true;
       Array.iter Domain.join domains;
       raise e);
    Array.iter Domain.join domains;
    unwrap results
  end

let map ~jobs f arr = run ~jobs (fun i -> f arr.(i)) (Array.length arr)

let map_list ~jobs f l =
  Array.to_list (map ~jobs f (Array.of_list l))
