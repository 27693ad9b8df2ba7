(* Committed reference outputs for seeds 1 and 2, one line each:

     SEED WORKLOAD KEY VALUE...

   analyse_cold keys are ITEM/MODE with the MD5 of the rendered
   outcomes; analyse_rtc keys are items with one ELEMENT=LO:HI (or
   ELEMENT=-, unbounded) token per element; sweep has one "csv" key with
   the MD5 of the rendered CSV.  Regenerate with [hem_bench golden]. *)

type t = (int * string * string, string list) Hashtbl.t

let path = "bench/e2e/golden.txt"

let load ~root : t =
  let t = Hashtbl.create 256 in
  (match Timing.read_file (Filename.concat root path) with
   | None -> ()
   | Some s ->
     List.iter
       (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | seed :: workload :: key :: value when line.[0] <> '#' ->
           Hashtbl.replace t (int_of_string seed, workload, key) value
         | _ -> ())
       (String.split_on_char '\n' s));
  t

let find (t : t) ~seed ~workload ~key = Hashtbl.find_opt t (seed, workload, key)

let covers (t : t) ~seed ~workload =
  Hashtbl.fold (fun (s, w, _) _ acc -> acc || (s = seed && w = workload)) t false

let md5 s = Digest.to_hex (Digest.string s)

let line ~seed ~workload ~key value =
  String.concat " " (string_of_int seed :: workload :: key :: value)
